// Every committed JSON input reads through the one strict reader: both
// repro corpora rewrite byte-identical, no truncated file loads, and a repro
// with a duplicate, unknown or wrong-kind key, or an integer that overflows
// or narrows in its member, is rejected.
//
// NEARPM_FUZZ_CORPUS_DIR, NEARPM_LITMUS_CORPUS_DIR and NEARPM_CONFIG_DIR
// are injected by the build (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/common/files.h"
#include "src/fuzz/repro.h"
#include "src/hwmodel/hw_config.h"
#include "src/obs/slo.h"
#include "src/spec/conformance.h"

namespace nearpm {
namespace {

std::string Read(const std::string& path) {
  StatusOr<std::string> text = ReadTextFile(path);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.ok() ? *text : std::string();
}

// A committed bank, serve and repl repro to mutate.
std::string BankFile() {
  return Read(std::string(NEARPM_FUZZ_CORPUS_DIR) +
              "/fuzz_logging_nearpm_md_s3_op3c_t19018.json");
}
std::string ServeFile() {
  return Read(std::string(NEARPM_FUZZ_CORPUS_DIR) +
              "/serve_nearpm_md_s1_mid_apply1_surv.json");
}
std::string ReplFile() {
  return Read(std::string(NEARPM_FUZZ_CORPUS_DIR) +
              "/repl_pb_nearpm_md_s1_after_intent0_m1_drop.json");
}
std::string LitmusFile() {
  return Read(std::string(NEARPM_LITMUS_CORPUS_DIR) +
              "/f1-post-S0-L0-shrunk-checker-missed.json");
}

// `text` with the value on `key`'s line replaced by `value` (the line keeps
// its comma).
std::string WithLine(const std::string& text, std::string_view key,
                     const std::string& value) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t begin = at + needle.size();
  std::size_t end = text.find('\n', begin);
  if (text[end - 1] == ',') {
    --end;
  }
  return text.substr(0, begin) + value + text.substr(end);
}

// `text` with one extra member inserted right after the opening brace.
std::string WithExtra(const std::string& text, const std::string& member) {
  return "{\n  " + member + "," + text.substr(1);
}

TEST(StrictInputsTest, FuzzCorpusRewritesByteIdentical) {
  const std::vector<std::string> files = ListCorpus(NEARPM_FUZZ_CORPUS_DIR);
  ASSERT_EQ(files.size(), 21u);
  for (const std::string& path : files) {
    const std::string text = Read(path);
    const auto repro = fuzz::ReproFromJson(text);
    ASSERT_TRUE(repro.ok()) << path << ": " << repro.status().ToString();
    EXPECT_EQ(fuzz::ReproToJson(*repro), text) << path;
    EXPECT_EQ(path.substr(path.rfind('/') + 1), fuzz::ReproFileName(*repro));
  }
}

TEST(StrictInputsTest, LitmusCorpusRewritesByteIdentical) {
  const std::vector<std::string> files = ListCorpus(NEARPM_LITMUS_CORPUS_DIR);
  ASSERT_EQ(files.size(), 3u);
  for (const std::string& path : files) {
    const std::string text = Read(path);
    const auto repro = spec::LitmusRepro::Parse(text);
    ASSERT_TRUE(repro.ok()) << path << ": " << repro.status().ToString();
    EXPECT_EQ(repro->Write(), text) << path;
  }
}

// Parses `text` as the kind of input the committed file `path` is.
Status ParseAs(const std::string& path, std::string_view text) {
  if (path.rfind(NEARPM_FUZZ_CORPUS_DIR, 0) == 0) {
    return fuzz::ReproFromJson(text).status();
  }
  if (path.rfind(NEARPM_LITMUS_CORPUS_DIR, 0) == 0) {
    return spec::LitmusRepro::Parse(text).status();
  }
  if (path.find("/slo-") != std::string::npos) {
    return obs::ParseSloSpec(text).status();
  }
  return hwmodel::ParseHwConfig(text).status();
}

// Every prefix that cuts a committed file before its closing brace must
// fail with an error Status -- never load, never crash.
TEST(StrictInputsTest, TruncatedInputsAreErrors) {
  std::vector<std::string> paths;
  for (const char* dir : {NEARPM_FUZZ_CORPUS_DIR, NEARPM_LITMUS_CORPUS_DIR,
                          NEARPM_CONFIG_DIR}) {
    for (const std::string& path : ListCorpus(dir)) {
      paths.push_back(path);
    }
  }
  ASSERT_GE(paths.size(), 28u);
  for (const std::string& path : paths) {
    const std::string text = Read(path);
    ASSERT_TRUE(ParseAs(path, text).ok()) << path;
    const std::size_t close = text.rfind('}');
    ASSERT_NE(close, std::string::npos) << path;
    for (std::size_t n = 0; n <= close; ++n) {
      EXPECT_FALSE(ParseAs(path, std::string_view(text).substr(0, n)).ok())
          << path << " loaded from its first " << n << " bytes";
    }
  }
}

// ---- Malformed repros -------------------------------------------------------

TEST(StrictInputsTest, RejectsDuplicateExpect) {
  const std::string text =
      WithExtra(BankFile(), "\"expect\": \"violation\"");
  EXPECT_FALSE(fuzz::ReproFromJson(text).ok())
      << "a duplicate key must not resolve to either value";
}

TEST(StrictInputsTest, RejectsSeedOverflow) {
  EXPECT_FALSE(fuzz::ReproFromJson(
                   WithLine(BankFile(), "seed", "18446744073709551617"))
                   .ok());
  EXPECT_TRUE(fuzz::ReproFromJson(
                  WithLine(BankFile(), "seed", "18446744073709551615"))
                  .ok());
}

TEST(StrictInputsTest, RejectsUnknownKeys) {
  EXPECT_FALSE(
      fuzz::ReproFromJson(WithExtra(BankFile(), "\"brake_recovery\": true"))
          .ok());
  EXPECT_FALSE(
      fuzz::ReproFromJson(WithExtra(BankFile(), "\"serve_shards\": 3")).ok())
      << "serve keys are unknown to a bank repro";
  EXPECT_FALSE(
      fuzz::ReproFromJson(WithExtra(ServeFile(), "\"repl_groups\": 2")).ok())
      << "repl keys are unknown to a serve repro";
}

TEST(StrictInputsTest, RejectsWrongKindLitmusKeys) {
  ASSERT_TRUE(spec::LitmusRepro::Parse(LitmusFile()).ok());
  EXPECT_FALSE(
      spec::LitmusRepro::Parse(WithLine(LitmusFile(), "enforce", "\"true\""))
          .ok());
  EXPECT_FALSE(spec::LitmusRepro::Parse(
                   WithLine(LitmusFile(), "weaken_checker", "\"2\""))
                   .ok());
  EXPECT_FALSE(spec::LitmusRepro::Parse(
                   WithLine(LitmusFile(), "weaken_checker", "4294967298"))
                   .ok());
}

TEST(StrictInputsTest, RejectsValuesThatNarrowInTheirMember) {
  EXPECT_FALSE(fuzz::ReproFromJson(
                   WithLine(ServeFile(), "serve_shards", "4294967299"))
                   .ok());
  EXPECT_FALSE(fuzz::ReproFromJson(
                   WithLine(ServeFile(), "serve_apply_ordinal", "4294967297"))
                   .ok());
  for (const char* key : {"repl_groups", "repl_replicas", "repl_ordinal"}) {
    EXPECT_FALSE(
        fuzz::ReproFromJson(WithLine(ReplFile(), key, "4294967298")).ok())
        << key;
  }
  EXPECT_TRUE(
      fuzz::ReproFromJson(WithLine(ServeFile(), "serve_shards", "4")).ok());
}

TEST(StrictInputsTest, RejectsLiveBankKeysInServiceRepros) {
  EXPECT_FALSE(
      fuzz::ReproFromJson(WithLine(ServeFile(), "total_ops", "5")).ok());
  EXPECT_FALSE(
      fuzz::ReproFromJson(WithLine(ReplFile(), "mechanism", "\"redo_logging\""))
          .ok());
}

}  // namespace
}  // namespace nearpm
