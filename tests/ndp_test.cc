#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/ndp/address_map.h"
#include "src/ndp/device.h"
#include "src/ndp/inflight_table.h"
#include "src/ndp/recovery_journal.h"
#include "src/ndp/request.h"
#include "src/ndp/sync_machine.h"
#include "src/pmem/pm_space.h"

namespace nearpm {
namespace {

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i);
  }
  return out;
}

// ---- AddressMappingTable ----------------------------------------------------

TEST(AddressMapTest, TranslateWithinPool) {
  InterleaveMap il(2, 4096);
  AddressMappingTable table(&il);
  ASSERT_TRUE(table.RegisterPool(1, 0x1000, 0x1000, 1 << 20).ok());
  auto tr = table.Translate(1, 0x1000 + 5000, 16);
  ASSERT_TRUE(tr.ok());
  EXPECT_EQ(tr->global, 0x1000u + 5000u);
  EXPECT_EQ(tr->device, il.DeviceOf(0x1000 + 5000));
}

TEST(AddressMapTest, UnknownPoolFails) {
  InterleaveMap il(2, 4096);
  AddressMappingTable table(&il);
  EXPECT_EQ(table.Translate(9, 0, 8).status().code(), StatusCode::kNotFound);
}

TEST(AddressMapTest, BoundaryCheckRejectsEscape) {
  InterleaveMap il(2, 4096);
  AddressMappingTable table(&il);
  ASSERT_TRUE(table.RegisterPool(1, 0, 0, 4096).ok());
  EXPECT_TRUE(table.Translate(1, 0, 4096).ok());
  EXPECT_EQ(table.Translate(1, 0, 4097).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(table.Translate(1, 4096, 1).status().code(),
            StatusCode::kOutOfRange);
}

TEST(AddressMapTest, DuplicateRegistrationFails) {
  InterleaveMap il(1, 4096);
  AddressMappingTable table(&il);
  ASSERT_TRUE(table.RegisterPool(1, 0, 0, 4096).ok());
  EXPECT_EQ(table.RegisterPool(1, 0, 0, 4096).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(table.UnregisterPool(1).ok());
  EXPECT_EQ(table.UnregisterPool(1).code(), StatusCode::kNotFound);
}

TEST(AddressMapTest, NonIdentityVirtualBase) {
  InterleaveMap il(1, 4096);
  AddressMappingTable table(&il);
  ASSERT_TRUE(table.RegisterPool(2, 0x7f0000000000ULL, 8192, 4096).ok());
  auto tr = table.Translate(2, 0x7f0000000100ULL, 8);
  ASSERT_TRUE(tr.ok());
  EXPECT_EQ(tr->global, 8192u + 0x100u);
}

// ---- InflightTable ----------------------------------------------------------

TEST(InflightTableTest, DetectsWriteConflicts) {
  InflightTable table;
  table.Insert({1, AddrRange{0, 64}, AddrRange{100, 200}, 1000});
  // Write into the entry's write range.
  EXPECT_EQ(table.Conflicts({150, 160}, true, 0), 1000u);
  // Write into the entry's read range.
  EXPECT_EQ(table.Conflicts({0, 32}, true, 0), 1000u);
  // Read of the entry's write range.
  EXPECT_EQ(table.Conflicts({150, 160}, false, 0), 1000u);
  // Read of the entry's read range: no conflict.
  EXPECT_EQ(table.Conflicts({0, 32}, false, 0), 0u);
}

TEST(InflightTableTest, CompletedEntriesIgnored) {
  InflightTable table;
  table.Insert({1, {}, AddrRange{0, 64}, 1000});
  EXPECT_EQ(table.Conflicts({0, 64}, true, 1000), 0u);
  EXPECT_EQ(table.Conflicts({0, 64}, true, 999), 1000u);
}

TEST(InflightTableTest, CollectsConflictingSeqs) {
  InflightTable table;
  table.Insert({1, {}, AddrRange{0, 64}, 1000});
  table.Insert({2, {}, AddrRange{32, 128}, 2000});
  std::vector<std::uint64_t> seqs;
  EXPECT_EQ(table.Conflicts({0, 128}, true, 0, &seqs), 2000u);
  EXPECT_EQ(seqs.size(), 2u);
}

TEST(InflightTableTest, PruneDropsCompleted) {
  InflightTable table;
  table.Insert({1, {}, AddrRange{0, 64}, 100});
  table.Insert({2, {}, AddrRange{64, 128}, 200});
  table.Prune(150);
  EXPECT_EQ(table.size(), 1u);
}

// ---- SyncStateMachine -------------------------------------------------------

TEST(SyncMachineTest, TwoDeviceHandshake) {
  SyncStateMachine sm(2);
  EXPECT_TRUE(sm.AllComplete());
  ASSERT_TRUE(sm.ReceiveCommand().ok());
  EXPECT_EQ(sm.state(), SyncStateMachine::State::kExecuting);
  ASSERT_TRUE(sm.ReceiveLocalComplete().ok());
  EXPECT_FALSE(sm.AllComplete());  // remote still missing
  ASSERT_TRUE(sm.ReceiveRemoteComplete(0).ok());
  EXPECT_TRUE(sm.AllComplete());
}

TEST(SyncMachineTest, RemoteBeforeLocal) {
  SyncStateMachine sm(2);
  ASSERT_TRUE(sm.ReceiveCommand().ok());
  ASSERT_TRUE(sm.ReceiveRemoteComplete(0).ok());
  EXPECT_FALSE(sm.AllComplete());
  ASSERT_TRUE(sm.ReceiveLocalComplete().ok());
  EXPECT_TRUE(sm.AllComplete());
}

TEST(SyncMachineTest, ProtocolViolationsRejected) {
  SyncStateMachine sm(2);
  EXPECT_FALSE(sm.ReceiveLocalComplete().ok());  // no command yet
  ASSERT_TRUE(sm.ReceiveCommand().ok());
  EXPECT_FALSE(sm.ReceiveCommand().ok());  // still executing
  ASSERT_TRUE(sm.ReceiveLocalComplete().ok());
  EXPECT_FALSE(sm.ReceiveLocalComplete().ok());  // duplicate
  EXPECT_FALSE(sm.ReceiveRemoteComplete(5).ok());  // out of range
}

TEST(SyncMachineTest, CompletionBeforeCommandRejectedWithoutStateChange) {
  SyncStateMachine sm(3);
  // Both completion flavours arriving before any command must fail cleanly
  // and leave the machine in pristine All-Complete.
  EXPECT_FALSE(sm.ReceiveLocalComplete().ok());
  EXPECT_FALSE(sm.ReceiveRemoteComplete(0).ok());
  EXPECT_TRUE(sm.AllComplete());
  EXPECT_FALSE(sm.local_done());
  EXPECT_EQ(sm.commands_tracked(), 0u);
  // The machine is still usable: a full handshake succeeds afterwards.
  ASSERT_TRUE(sm.ReceiveCommand().ok());
  ASSERT_TRUE(sm.ReceiveLocalComplete().ok());
  ASSERT_TRUE(sm.ReceiveRemoteComplete(0).ok());
  ASSERT_TRUE(sm.ReceiveRemoteComplete(1).ok());
  EXPECT_TRUE(sm.AllComplete());
}

TEST(SyncMachineTest, DuplicateRemoteCompletionRejectedWithoutStateChange) {
  SyncStateMachine sm(3);
  ASSERT_TRUE(sm.ReceiveCommand().ok());
  ASSERT_TRUE(sm.ReceiveRemoteComplete(0).ok());
  EXPECT_EQ(sm.remotes_pending(), 1);
  // Re-delivering participant 0's completion must not double-count it or
  // complete the command early.
  EXPECT_FALSE(sm.ReceiveRemoteComplete(0).ok());
  EXPECT_EQ(sm.remotes_pending(), 1);
  EXPECT_EQ(sm.state(), SyncStateMachine::State::kExecuting);
  ASSERT_TRUE(sm.ReceiveLocalComplete().ok());
  EXPECT_FALSE(sm.AllComplete());  // remote 1 genuinely outstanding
  ASSERT_TRUE(sm.ReceiveRemoteComplete(1).ok());
  EXPECT_TRUE(sm.AllComplete());
}

TEST(SyncMachineTest, StragglerAfterAllCompleteRejected) {
  SyncStateMachine sm(2);
  ASSERT_TRUE(sm.ReceiveCommand().ok());
  ASSERT_TRUE(sm.ReceiveLocalComplete().ok());
  ASSERT_TRUE(sm.ReceiveRemoteComplete(0).ok());
  ASSERT_TRUE(sm.AllComplete());
  // A straggling duplicate arriving after the machine already returned to
  // All-Complete is an out-of-order signal, not a fresh command's completion.
  EXPECT_FALSE(sm.ReceiveRemoteComplete(0).ok());
  EXPECT_TRUE(sm.AllComplete());
  EXPECT_EQ(sm.commands_tracked(), 1u);
}

TEST(SyncMachineTest, ResetAbandonsInflightCommand) {
  SyncStateMachine sm(2);
  ASSERT_TRUE(sm.ReceiveCommand().ok());
  ASSERT_TRUE(sm.ReceiveLocalComplete().ok());
  sm.Reset();
  EXPECT_TRUE(sm.AllComplete());
  EXPECT_FALSE(sm.local_done());
  // Signals for the abandoned command are rejected...
  EXPECT_FALSE(sm.ReceiveRemoteComplete(0).ok());
  // ...and a new command starts from a clean slate.
  ASSERT_TRUE(sm.ReceiveCommand().ok());
  EXPECT_EQ(sm.remotes_pending(), 1);
  ASSERT_TRUE(sm.ReceiveLocalComplete().ok());
  ASSERT_TRUE(sm.ReceiveRemoteComplete(0).ok());
  EXPECT_TRUE(sm.AllComplete());
}

TEST(SyncMachineTest, SingleDeviceCompletesOnLocal) {
  SyncStateMachine sm(1);
  ASSERT_TRUE(sm.ReceiveCommand().ok());
  ASSERT_TRUE(sm.ReceiveLocalComplete().ok());
  EXPECT_TRUE(sm.AllComplete());
  EXPECT_EQ(sm.commands_tracked(), 1u);
}

// ---- RecoveryJournal --------------------------------------------------------

TEST(RecoveryJournalTest, ReplaySetRespectsFrontier) {
  RecoveryJournal journal;
  NearPmRequest r1{1, NearPmOp::kUndologCreate, 1, 0, 0, 64, 4096, 10};
  NearPmRequest r2{2, NearPmOp::kCommitLog, 1, 0, 4096, 64, 0, 0};
  journal.Add(r1, 0, 5000);  // before sync 1, still executing
  journal.Add(r2, 1, 9000);  // after sync 1
  const auto replay = journal.ReplaySet(1);
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].request.seq, 1u);
  EXPECT_TRUE(journal.ReplaySet(0).empty());
}

TEST(RecoveryJournalTest, RemoveBySeqAndSync) {
  RecoveryJournal journal;
  journal.Add(NearPmRequest{1}, 0, 100);
  journal.Add(NearPmRequest{2}, 0, 200);
  journal.Add(NearPmRequest{3}, 2, 300);
  journal.Remove(2);
  EXPECT_EQ(journal.size(), 2u);
  journal.RemoveThroughSync(2);  // removes entries with after_sync < 2
  EXPECT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal.entries().front().request.seq, 3u);
}

TEST(RecoveryJournalTest, RemoveCompletedBefore) {
  RecoveryJournal journal;
  journal.Add(NearPmRequest{1}, 0, 100);
  journal.Add(NearPmRequest{2}, 0, 200);
  journal.Add(NearPmRequest{3}, 0, 300);
  journal.RemoveCompletedBefore(200);  // 1 and 2 left the FIFO
  EXPECT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal.entries().front().request.seq, 3u);
}

// ---- NearPmDevice -----------------------------------------------------------

struct DeviceFixture : public ::testing::Test {
  DeviceFixture() {
    PmSpaceOptions o;
    o.size = 1 << 20;
    o.num_devices = 1;
    space = std::make_unique<PmSpace>(o);
    device = std::make_unique<NearPmDevice>(0, &hw, space.get());
  }

  std::vector<NdpWorkItem> CopyWork(PmAddr src, PmAddr dst, std::uint64_t n) {
    NdpWorkItem item;
    item.kind = NdpWorkItem::Kind::kCopy;
    item.src = src;
    item.dst = dst;
    item.size = n;
    return {item};
  }

  hwmodel::HwConfig hw;
  const CostModel& cost = hw.cost;
  std::unique_ptr<PmSpace> space;
  std::unique_ptr<NearPmDevice> device;
};

TEST_F(DeviceFixture, ExecutesCopyFunctionally) {
  space->CpuWrite(0, Pattern(256, 3));
  space->CpuPersist(0, 256);
  auto res = device->Issue(1, 0, {0, 256}, {4096, 4096 + 256},
                           CopyWork(0, 4096, 256));
  EXPECT_GT(res.completion, res.cpu_release);
  std::vector<std::uint8_t> out(256);
  space->NdpRead(4096, out);
  EXPECT_EQ(out, Pattern(256, 3));
}

TEST_F(DeviceFixture, CpuReleaseBeforeCompletion) {
  space->CpuWrite(0, Pattern(4096, 1));
  space->CpuPersist(0, 4096);
  auto res = device->Issue(1, 0, {0, 4096}, {8192, 8192 + 4096},
                           CopyWork(0, 8192, 4096));
  // Asynchronous offload: the CPU is released after the MMIO post, long
  // before the DMA finishes.
  EXPECT_EQ(res.cpu_release, NsToTime(cost.cmd_post_ns));
  EXPECT_GT(res.completion, res.cpu_release + NsToTime(1000.0));
}

TEST_F(DeviceFixture, IndependentRequestsRunOnParallelUnits) {
  space->CpuWrite(0, Pattern(4096, 1));
  space->CpuPersist(0, 4096);
  SimTime cpu = 0;
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    auto res = device->Issue(static_cast<std::uint64_t>(i + 1), cpu,
                             {0, 1024},
                             {static_cast<PmAddr>(8192 + i * 4096),
                              static_cast<PmAddr>(8192 + i * 4096 + 1024)},
                             CopyWork(0, static_cast<PmAddr>(8192 + i * 4096),
                                      1024));
    cpu = res.cpu_release;
    completions.push_back(res.completion);
  }
  // With 4 units, the four copies overlap: the last completion is far less
  // than 4x a single copy past its issue time.
  const double one_copy = cost.NdpCopyNs(1024);
  EXPECT_LT(static_cast<double>(completions.back()),
            static_cast<double>(completions.front()) + 1.5 * one_copy);
}

TEST_F(DeviceFixture, ConflictingRequestsSerialize) {
  space->CpuWrite(0, Pattern(4096, 1));
  space->CpuPersist(0, 4096);
  auto r1 = device->Issue(1, 0, {0, 4096}, {8192, 8192 + 4096},
                          CopyWork(0, 8192, 4096));
  // Second request writes the same destination: must wait for the first.
  auto r2 = device->Issue(2, r1.cpu_release, {0, 4096}, {8192, 8192 + 4096},
                          CopyWork(0, 8192, 4096));
  EXPECT_GE(r2.completion, r1.completion + NsToTime(cost.NdpCopyNs(4096)));
  EXPECT_EQ(device->stats().dispatcher_conflict_stalls, 1u);
}

TEST_F(DeviceFixture, HostAccessBarrierStallsAndRetires) {
  space->CpuWrite(0, Pattern(4096, 1));
  space->CpuPersist(0, 4096);
  auto res = device->Issue(1, 0, {0, 4096}, {8192, 8192 + 4096},
                           CopyWork(0, 8192, 4096));
  // CPU wants to write the source the DMA is reading: stalls to completion.
  const SimTime when =
      device->HostAccessBarrier({0, 64}, true, res.cpu_release);
  EXPECT_EQ(when, res.completion);
  EXPECT_EQ(device->stats().host_access_stalls, 1u);
  // And the request is now retired: durable at any later crash.
  Rng rng(1);
  const CrashReport report = space->Crash(rng, 0);
  EXPECT_EQ(report.requests_dropped, 0u);
  EXPECT_EQ(report.requests_truncated, 0u);
  std::vector<std::uint8_t> out(64);
  space->CpuRead(8192, out);
  EXPECT_EQ(out, Pattern(64, 1));
}

TEST_F(DeviceFixture, HostAccessWithoutConflictDoesNotStall) {
  auto res = device->Issue(1, 0, {0, 64}, {4096, 4160}, CopyWork(0, 4096, 64));
  const SimTime when =
      device->HostAccessBarrier({64, 128}, true, res.cpu_release);
  EXPECT_EQ(when, res.cpu_release);
  EXPECT_EQ(device->stats().host_access_stalls, 0u);
}

TEST_F(DeviceFixture, FifoBackpressureStallsCpu) {
  space->CpuWrite(0, Pattern(4096, 1));
  space->CpuPersist(0, 4096);
  // Saturate: many large copies to distinct destinations with 4 units and a
  // 32-entry FIFO. The arrival rate (one post per ~100 ns) exceeds the
  // service rate (4 units / ~1 us per 4 kB copy), so the FIFO fills and
  // posting must eventually stall the CPU.
  SimTime cpu = 0;
  for (int i = 0; i < 128; ++i) {
    auto res =
        device->Issue(static_cast<std::uint64_t>(i + 1), cpu, {0, 4096},
                      {static_cast<PmAddr>(65536 + i * 4096),
                       static_cast<PmAddr>(65536 + i * 4096 + 4096)},
                      CopyWork(0, static_cast<PmAddr>(65536 + i * 4096), 4096));
    cpu = res.cpu_release;
  }
  EXPECT_GT(device->stats().fifo_backpressure_stalls, 0u);
}

TEST_F(DeviceFixture, WorkNsAccountsItems) {
  std::vector<NdpWorkItem> work = CopyWork(0, 4096, 1024);
  NdpWorkItem lit;
  lit.kind = NdpWorkItem::Kind::kLiteral;
  lit.dst = 8192;
  lit.size = 64;
  work.push_back(lit);
  const double ns = NdpWorkNs(cost, work);
  EXPECT_DOUBLE_EQ(
      ns, cost.ndp_setup_ns + 1024 * cost.ndp_dma_ns_per_byte +
              cost.ndp_metadata_ns);
}

TEST_F(DeviceFixture, ResetClearsState) {
  device->Issue(1, 0, {0, 64}, {4096, 4160}, CopyWork(0, 4096, 64));
  device->Reset();
  EXPECT_EQ(device->last_completion(), 0u);
  EXPECT_EQ(device->stats().requests, 0u);
}

}  // namespace
}  // namespace nearpm
