// Edge-case behaviour of the crash-consistency providers: resource
// exhaustion, epoch boundaries, redirect corner cases, switch-record
// atomicity, pool layout arithmetic, the shared slot recovery scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/pmlib/heap.h"

namespace nearpm {
namespace {

RuntimeOptions Opts(ExecMode mode = ExecMode::kNdpMultiDelayed) {
  RuntimeOptions o;
  o.mode = mode;
  o.pm_size = 128ull << 20;
  return o;
}

std::unique_ptr<PersistentHeap> MakeHeap(Runtime& rt, PoolArena& arena,
                                         Mechanism mech, int epoch_ops = 4) {
  HeapOptions ho;
  ho.mechanism = mech;
  ho.data_size = 2ull << 20;
  ho.ckpt_epoch_ops = epoch_ops;
  auto h = PersistentHeap::Create(rt, arena, ho);
  EXPECT_TRUE(h.ok());
  return std::move(*h);
}

// ---- Pool layout --------------------------------------------------------------

TEST(PoolLayoutTest, FootprintCoversAllRegions) {
  PoolLayoutOptions opts;
  opts.data_size = 1ull << 20;
  opts.threads = 4;
  const std::uint64_t plain = PmPool::Footprint(opts);
  opts.shadow_physical_area = true;
  const std::uint64_t shadowed = PmPool::Footprint(opts);
  EXPECT_EQ(shadowed - plain, 2 * opts.data_size);
  EXPECT_EQ(plain % kPmPageSize, 0u);
}

TEST(PoolLayoutTest, RegionsDoNotOverlap) {
  Runtime rt(Opts());
  PoolLayoutOptions opts;
  opts.data_size = 1ull << 20;
  opts.threads = 2;
  opts.shadow_physical_area = true;
  auto pool = PmPool::Create(rt, 0, opts);
  ASSERT_TRUE(pool.ok());
  EXPECT_LT(pool->chunk_headers(), pool->page_table());
  EXPECT_LT(pool->page_table(), pool->data_base());
  EXPECT_LE(pool->data_base() + pool->data_size(), pool->phys_base());
  EXPECT_LE(pool->phys_base() + 2 * pool->data_size(),
            pool->cc_area(0).base());
  EXPECT_EQ(pool->cc_area(1).base() - pool->cc_area(0).base(), CcArea::kSize);
  EXPECT_LE(pool->cc_area(1).base() + CcArea::kSize,
            pool->base() + PmPool::Footprint(opts));
}

TEST(PoolLayoutTest, RejectsBadParameters) {
  Runtime rt(Opts());
  PoolLayoutOptions opts;
  opts.data_size = 100;  // not page aligned
  EXPECT_FALSE(PmPool::Create(rt, 0, opts).ok());
  opts.data_size = 1ull << 20;
  EXPECT_FALSE(PmPool::Create(rt, 100, opts).ok());  // base unaligned
  opts.threads = 10000;
  EXPECT_FALSE(PmPool::Create(rt, 0, opts).ok());
}

TEST(CcAreaTest, SlotAddressingDisjoint) {
  const CcArea area(1 << 20);
  EXPECT_EQ(area.TxRecordAddr(), area.base());
  // Undo, redo and checkpoint slot arrays tile without gaps or overlap.
  EXPECT_EQ(area.UndoSlotAddr(1) - area.UndoSlotAddr(0), kSlotSize);
  EXPECT_EQ(area.RedoSlotAddr(0), area.UndoSlotAddr(kLogSlots));
  EXPECT_EQ(area.CkptSlotAddr(0), area.RedoSlotAddr(kLogSlots));
  EXPECT_LE(area.CkptSlotAddr(kCkptSlots - 1) + kSlotSize,
            area.base() + CcArea::kSize);
  EXPECT_EQ(CcArea::SlotData(area.UndoSlotAddr(0)),
            area.UndoSlotAddr(0) + kSlotHeaderSize);
}

TEST(ChecksumTest, NeverZeroAndSensitive) {
  std::vector<std::uint8_t> empty;
  EXPECT_NE(Checksum64(empty), 0u);
  std::vector<std::uint8_t> a{1, 2, 3};
  std::vector<std::uint8_t> b{1, 2, 4};
  EXPECT_NE(Checksum64(a), Checksum64(b));
  EXPECT_EQ(Checksum64(a), Checksum64(a));
  // One word equal to the FNV offset basis cancels the start state, so the
  // raw sum is 0 and the never-0 guard must step in.
  const std::uint64_t basis = 0xcbf29ce484222325ULL;
  std::vector<std::uint8_t> zeroing(sizeof(basis));
  std::memcpy(zeroing.data(), &basis, sizeof(basis));
  EXPECT_NE(Checksum64(zeroing), 0u);
}

// The remaining checksum tests pin what recovery relies on -- a damaged
// payload must fail its slot's checksum -- not particular sums.
std::vector<std::uint8_t> PayloadBytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + 131 * i + (i >> 8));
  }
  return out;
}

// Two words laid out as payload bytes, in host byte order like Checksum64.
std::vector<std::uint8_t> TwoWords(std::uint64_t w0, std::uint64_t w1) {
  std::vector<std::uint8_t> out(2 * sizeof(std::uint64_t));
  std::memcpy(out.data(), &w0, sizeof(w0));
  std::memcpy(out.data() + sizeof(w0), &w1, sizeof(w1));
  return out;
}

TEST(ChecksumTest, EverySingleBitFlipOfAPageChangesTheSum) {
  std::vector<std::uint8_t> page = PayloadBytes(kMaxLogData, 7);
  const std::uint64_t sum = Checksum64(page);
  std::size_t unchanged = 0;
  for (std::size_t bit = 0; bit < page.size() * 8; ++bit) {
    page[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    unchanged += Checksum64(page) == sum ? 1 : 0;
    page[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(unchanged, 0u);
}

TEST(ChecksumTest, TopBitFlipsInTwoWordsDoNotCancel) {
  // A plain 8-byte FNV-1a step (h = (h ^ w) * P) carries a flip of bit 63
  // through the multiply as a flip of bit 63 alone, so two such flips cancel.
  constexpr std::uint64_t kTop = 1ull << 63;
  const std::uint64_t words[][2] = {
      {0, 0}, {0x0123456789abcdefULL, 0xfedcba9876543210ULL}, {~0ull, 1}};
  for (const auto& w : words) {
    EXPECT_NE(Checksum64(TwoWords(w[0], w[1])),
              Checksum64(TwoWords(w[0] ^ kTop, w[1] ^ kTop)))
        << std::hex << w[0] << " " << w[1];
  }
}

TEST(ChecksumTest, TornSlotImagesDoNotMatchTheFullPayload) {
  // A slot overwritten in place, torn after each cacheline prefix: the image
  // holds the new payload's first lines and the old payload's rest.
  const std::vector<std::uint8_t> old_payload = PayloadBytes(kMaxLogData, 1);
  const std::vector<std::uint8_t> new_payload = PayloadBytes(kMaxLogData, 2);
  const std::uint64_t full = Checksum64(new_payload);
  for (std::size_t lines = 1; lines < kMaxLogData / kCacheLineSize; ++lines) {
    std::vector<std::uint8_t> torn = old_payload;
    std::copy_n(new_payload.begin(), lines * kCacheLineSize, torn.begin());
    EXPECT_NE(Checksum64(torn), full) << lines << " new lines";
  }
}

TEST(ChecksumTest, EachLengthDiffersFromItsOneByteExtension) {
  const std::vector<std::uint8_t> zeros(18, 0);
  const std::vector<std::uint8_t> pattern = PayloadBytes(18, 3);
  for (const std::vector<std::uint8_t>* bytes : {&zeros, &pattern}) {
    const std::span<const std::uint8_t> all(*bytes);
    for (std::size_t n = 0; n <= 17; ++n) {
      EXPECT_NE(Checksum64(all.first(n)), Checksum64(all.first(n + 1)))
          << "length " << n << ", first byte " << int{all[0]};
    }
  }
}

TEST(ChecksumTest, OneValueFillsOfALineAreDistinct) {
  // The spec decoder names a slot payload by matching fill checksums.
  std::set<std::uint64_t> sums;
  for (int value = 0; value < 256; ++value) {
    const std::vector<std::uint8_t> line(kCacheLineSize,
                                         static_cast<std::uint8_t>(value));
    sums.insert(Checksum64(line));
  }
  EXPECT_EQ(sums.size(), 256u);
}

// ---- Undo provider -------------------------------------------------------------

TEST(UndoEdgeTest, SlotExhaustionReported) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kLogging);
  ASSERT_TRUE(heap->BeginOp(0).ok());
  Status st;
  for (std::size_t i = 0; i <= kLogSlots; ++i) {
    st = heap->Store<std::uint64_t>(0, heap->root() + i * 64, i);
    if (!st.ok()) {
      break;
    }
  }
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(UndoEdgeTest, RepeatedRangeUsesOneSlot) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kLogging);
  ASSERT_TRUE(heap->BeginOp(0).ok());
  for (int i = 0; i < 200; ++i) {  // far more writes than slots
    ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), i).ok());
  }
  ASSERT_TRUE(heap->CommitOp(0).ok());
  EXPECT_EQ(*heap->Load<std::uint64_t>(0, heap->root()), 199u);
}

TEST(UndoEdgeTest, OverlappingRangesRollBackToOldest) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kLogging);
  const PmAddr a = heap->root();
  // Committed: 8 bytes of 0x11.
  ASSERT_TRUE(heap->BeginOp(0).ok());
  ASSERT_TRUE(heap->Store<std::uint64_t>(0, a, 0x1111111111111111ull).ok());
  ASSERT_TRUE(heap->CommitOp(0).ok());
  rt.DrainDevices(0);
  // Torn op: snapshot [a, a+8), write, then snapshot the wider [a, a+16)
  // (not contained, so a second slot), write again.
  ASSERT_TRUE(heap->BeginOp(0).ok());
  ASSERT_TRUE(heap->Store<std::uint64_t>(0, a, 0x22u).ok());
  std::uint64_t wide[2] = {0x33u, 0x33u};
  ASSERT_TRUE(heap->Write(0, a, AsBytes(wide)).ok());
  rt.DrainDevices(0);
  Rng rng(3);
  rt.InjectCrash(rng);
  heap->DropVolatile();
  ASSERT_TRUE(heap->Recover().ok());
  EXPECT_EQ(*heap->Load<std::uint64_t>(0, a), 0x1111111111111111ull);
}

// ---- Redo provider -------------------------------------------------------------

TEST(RedoEdgeTest, LoadSeesOwnUncommittedWrite) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kRedoLogging);
  ASSERT_TRUE(heap->BeginOp(0).ok());
  ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), 777).ok());
  EXPECT_EQ(*heap->Load<std::uint64_t>(0, heap->root()), 777u);
  // The in-place location is untouched until commit applies the log.
  ASSERT_TRUE(heap->CommitOp(0).ok());
  rt.DrainDevices(0);
  EXPECT_EQ(*heap->Load<std::uint64_t>(0, heap->root()), 777u);
}

TEST(RedoEdgeTest, PartialOverlapLoadRejected) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kRedoLogging);
  ASSERT_TRUE(heap->BeginOp(0).ok());
  std::uint64_t pair[2] = {1, 2};
  ASSERT_TRUE(heap->Write(0, heap->root(), AsBytes(pair)).ok());
  // A load straddling the redirected range's boundary cannot be served.
  std::uint8_t out[16];
  EXPECT_EQ(heap->Read(0, heap->root() + 8, out).code(),
            StatusCode::kFailedPrecondition);
  // Fully inside and fully outside both work.
  EXPECT_TRUE(heap->Read(0, heap->root() + 8, {out, 8}).ok());
  EXPECT_TRUE(heap->Read(0, heap->root() + 64, {out, 8}).ok());
}

TEST(RedoEdgeTest, RewriteSameRangeReusesSlot) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kRedoLogging);
  ASSERT_TRUE(heap->BeginOp(0).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), i).ok());
  }
  ASSERT_TRUE(heap->CommitOp(0).ok());
  rt.DrainDevices(0);
  EXPECT_EQ(*heap->Load<std::uint64_t>(0, heap->root()), 199u);
}

// ---- Checkpoint provider --------------------------------------------------------

TEST(CkptEdgeTest, EpochClosesAtInterval) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kCheckpointing, /*epoch_ops=*/3);
  auto& provider = static_cast<CheckpointProvider&>(heap->provider());
  for (int op = 0; op < 9; ++op) {
    ASSERT_TRUE(heap->BeginOp(0).ok());
    ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), op).ok());
    ASSERT_TRUE(heap->CommitOp(0).ok());
  }
  EXPECT_EQ(provider.epochs_closed(), 3u);
}

TEST(CkptEdgeTest, EpochClosesEarlyUnderSlotPressure) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap =
      MakeHeap(rt, arena, Mechanism::kCheckpointing, /*epoch_ops=*/1000);
  auto& provider = static_cast<CheckpointProvider&>(heap->provider());
  // Touch many distinct pages; the epoch must close before slots run out.
  for (int op = 0; op < 30; ++op) {
    ASSERT_TRUE(heap->BeginOp(0).ok());
    for (int p = 0; p < 4; ++p) {
      ASSERT_TRUE(heap->Store<std::uint64_t>(
                          0,
                          heap->root() +
                              static_cast<PmAddr>(op * 4 + p) * kPmPageSize,
                          op)
                      .ok());
    }
    ASSERT_TRUE(heap->CommitOp(0).ok());
  }
  EXPECT_GT(provider.epochs_closed(), 0u);
}

TEST(CkptEdgeTest, PageCheckpointedOncePerEpoch) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kCheckpointing, /*epoch_ops=*/8);
  const std::uint64_t before = rt.counters().ckpoint_create;
  for (int op = 0; op < 8; ++op) {  // one epoch, same page every op
    ASSERT_TRUE(heap->BeginOp(0).ok());
    ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), op).ok());
    ASSERT_TRUE(heap->CommitOp(0).ok());
  }
  EXPECT_EQ(rt.counters().ckpoint_create - before, 1u);
}

// ---- Slot recovery scan (undo, redo, checkpoint) ----------------------------

// The three slot logs recover through one scan. Each case plants a
// transaction record whose open tag is 7 and five slots behind it, each
// restoring 64 bytes onto its own line of the data window, then runs
// Recover() and checks the PM image and the provider's counter.
struct SlotLogCase {
  const char* name;
  Mechanism mechanism;
  std::uint64_t magic;
  TxState open_state;  // checkpointing reads committed_epoch instead
  PmAddr (CcArea::*slot)(std::size_t) const;
  std::uint64_t (*restored)(ConsistencyProvider&);
};

void PrintTo(const SlotLogCase& c, std::ostream* os) { *os << c.name; }

std::uint64_t Rollbacks(ConsistencyProvider& p) {
  return static_cast<UndoLogProvider&>(p).rollbacks();
}
std::uint64_t Reapplied(ConsistencyProvider& p) {
  return static_cast<RedoLogProvider&>(p).reapplied();
}
std::uint64_t PagesRestored(ConsistencyProvider& p) {
  return static_cast<CheckpointProvider&>(p).pages_restored();
}

class SlotScanTest : public ::testing::TestWithParam<SlotLogCase> {};

TEST_P(SlotScanTest, RestoresValidSlotsOfTheOpenTagAndScrubsEverySlot) {
  const SlotLogCase& c = GetParam();
  Runtime rt(Opts(ExecMode::kCpuBaseline));
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, c.mechanism);
  const CcArea area = heap->pool().cc_area(0);

  // Open: an ACTIVE undo transaction, a COMMITTED redo transaction, or the
  // epoch after the last committed checkpoint.
  constexpr std::uint64_t kOpen = 7;
  TxRecord rec;
  rec.state = static_cast<std::uint64_t>(c.open_state);
  rec.tx_id = kOpen;
  rec.committed_epoch = kOpen - 1;
  rt.Store(0, area.TxRecordAddr(), rec);
  rt.Persist(0, area.TxRecordAddr(), sizeof(rec));

  constexpr std::size_t kSlots = 5;
  const std::vector<std::uint8_t> current(64, 0xee);
  for (std::size_t i = 0; i < kSlots; ++i) {
    const PmAddr target = heap->root() + i * 64;
    rt.Write(0, target, current);
    rt.Persist(0, target, current.size());
    const auto fill = static_cast<std::uint8_t>(i + 1);
    const std::vector<std::uint8_t> payload(64, fill);
    SlotHeader header;
    header.magic = c.magic;
    header.tag = kOpen;
    header.target = target;
    header.size = payload.size();
    header.checksum = Checksum64(payload);
    if (i == 1) {
      header.tag = kOpen + 1;  // another transaction or epoch
    } else if (i == 2) {
      header.checksum ^= 1;  // a torn payload
    } else if (i == 3) {
      header.size = 0;
    } else if (i == 4) {
      header.size = kMaxLogData + 1;
    }
    const PmAddr slot = (area.*c.slot)(i);
    rt.Write(0, CcArea::SlotData(slot), payload);
    rt.Store(0, slot, header);
    rt.Persist(0, slot, kSlotHeaderSize + payload.size());
  }

  ASSERT_TRUE(heap->provider().Recover().ok());
  for (std::size_t i = 0; i < kSlots; ++i) {
    std::vector<std::uint8_t> got(64);
    rt.Read(0, heap->root() + i * 64, got);
    const std::uint8_t want = i == 0 ? 1 : 0xee;  // only slot 0 restores
    EXPECT_EQ(got, std::vector<std::uint8_t>(64, want)) << "slot " << i;
    const SlotHeader header = rt.Load<SlotHeader>(0, (area.*c.slot)(i));
    EXPECT_EQ(header.magic, 0u) << "slot " << i << " not scrubbed";
  }
  EXPECT_EQ(c.restored(heap->provider()), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    ThreeLogs, SlotScanTest,
    ::testing::Values(
        SlotLogCase{"undo", Mechanism::kLogging, kUndoMagic, TxState::kActive,
                    &CcArea::UndoSlotAddr, &Rollbacks},
        SlotLogCase{"redo", Mechanism::kRedoLogging, kRedoMagic,
                    TxState::kCommitted, &CcArea::RedoSlotAddr, &Reapplied},
        SlotLogCase{"checkpoint", Mechanism::kCheckpointing, kCkptMagic,
                    TxState::kIdle, &CcArea::CkptSlotAddr, &PagesRestored}),
    [](const ::testing::TestParamInfo<SlotLogCase>& param) {
      return std::string(param.param.name);
    });

// ---- Shadow provider -------------------------------------------------------------

TEST(ShadowEdgeTest, MultiPageOperationIsAtomic) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kShadowPaging);
  // Committed: two pages with known values.
  ASSERT_TRUE(heap->BeginOp(0).ok());
  ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), 1).ok());
  ASSERT_TRUE(
      heap->Store<std::uint64_t>(0, heap->root() + kPmPageSize, 1).ok());
  ASSERT_TRUE(heap->CommitOp(0).ok());
  rt.DrainDevices(0);
  // Repeatedly update both pages in one op, crash at arbitrary points: the
  // two pages must always agree (both old or both new).
  Rng rng(11);
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t next =
        *heap->Load<std::uint64_t>(0, heap->root()) + 1;
    ASSERT_TRUE(heap->BeginOp(0).ok());
    ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), next).ok());
    ASSERT_TRUE(
        heap->Store<std::uint64_t>(0, heap->root() + kPmPageSize, next).ok());
    if (rng.NextBool(0.5)) {
      ASSERT_TRUE(heap->CommitOp(0).ok());
    }
    rt.InjectCrash(rng);
    heap->DropVolatile();
    ASSERT_TRUE(heap->Recover().ok());
    const std::uint64_t a = *heap->Load<std::uint64_t>(0, heap->root());
    const std::uint64_t b =
        *heap->Load<std::uint64_t>(0, heap->root() + kPmPageSize);
    ASSERT_EQ(a, b) << "round " << round;
  }
}

TEST(ShadowEdgeTest, TooManyPagesInOneOpRejected) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kShadowPaging);
  ASSERT_TRUE(heap->BeginOp(0).ok());
  Status st;
  for (std::size_t p = 0; p <= kMaxSwitchEntries; ++p) {
    st = heap->Store<std::uint64_t>(
        0, heap->root() + static_cast<PmAddr>(p) * kPmPageSize, p);
    if (!st.ok()) {
      break;
    }
  }
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(ShadowEdgeTest, ReadOnlyOpCommitsCheaply) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kShadowPaging);
  const std::uint64_t copies_before = rt.counters().shadowcpy;
  ASSERT_TRUE(heap->BeginOp(0).ok());
  std::uint8_t out[8];
  ASSERT_TRUE(heap->Read(0, heap->root(), out).ok());
  ASSERT_TRUE(heap->CommitOp(0).ok());
  EXPECT_EQ(rt.counters().shadowcpy, copies_before);
}

// ---- Deferred frees across mechanisms --------------------------------------------

TEST(DeferredFreeTest, CheckpointFreesWaitForEpoch) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kCheckpointing, /*epoch_ops=*/4);
  auto block = heap->Alloc(0, 64);
  ASSERT_TRUE(block.ok());
  // Free inside op 1 of the epoch: the block must stay unavailable until the
  // epoch closes (op 4), because an epoch rollback could resurrect it.
  for (int op = 0; op < 4; ++op) {
    ASSERT_TRUE(heap->BeginOp(0).ok());
    ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), op).ok());
    if (op == 0) {
      ASSERT_TRUE(heap->Free(0, *block, 64).ok());
    }
    if (op < 3) {
      auto again = heap->Alloc(0, 64);
      ASSERT_TRUE(again.ok());
      EXPECT_NE(*again, *block) << "op " << op;
    }
    ASSERT_TRUE(heap->CommitOp(0).ok());
  }
  // Epoch closed at op 4: the block is reusable now.
  bool reused = false;
  for (int i = 0; i < 8 && !reused; ++i) {
    auto again = heap->Alloc(0, 64);
    ASSERT_TRUE(again.ok());
    reused = *again == *block;
  }
  EXPECT_TRUE(reused);
}

}  // namespace
}  // namespace nearpm
