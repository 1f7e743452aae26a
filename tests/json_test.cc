// Tests for the common strict JSON reader, the escaper, the schema binding
// (src/common/json.h) and the tools' shared flag parser (tools/flags.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/hwmodel/hw_config.h"
#include "src/obs/slo.h"
#include "tools/flags.h"

namespace nearpm {
namespace {

TEST(JsonReaderTest, ReadsEveryValueKind) {
  const auto doc = ParseJson(
      " {\"n\": null, \"t\": true, \"f\": false, \"u\": 18446744073709551615,"
      " \"i\": -9223372036854775808, \"d\": -1.5e3, \"s\": \"a\\\"b\\\\c\","
      " \"a\": [1, [2], {}], \"o\": {\"k\": \"v\"}}\n");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc->Find("n")->kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(doc->Find("t")->boolean);
  EXPECT_FALSE(doc->Find("f")->boolean);
  EXPECT_EQ(doc->Find("u")->kind, JsonValue::Kind::kUint);
  EXPECT_EQ(doc->Find("u")->uint, UINT64_MAX);
  EXPECT_EQ(doc->Find("i")->kind, JsonValue::Kind::kInt);
  EXPECT_EQ(doc->Find("i")->sint, INT64_MIN);
  EXPECT_EQ(doc->Find("d")->kind, JsonValue::Kind::kDouble);
  EXPECT_DOUBLE_EQ(doc->Find("d")->number, -1500.0);
  EXPECT_EQ(doc->Find("s")->str, "a\"b\\c");
  ASSERT_EQ(doc->Find("a")->items.size(), 3u);
  EXPECT_EQ(doc->Find("a")->items[1].items[0].uint, 2u);
  EXPECT_EQ(doc->Find("o")->Find("k")->str, "v");
  EXPECT_EQ(doc->Find("missing"), nullptr);
  // Members keep document order.
  EXPECT_EQ(doc->members.front().key, "n");
  EXPECT_EQ(doc->members.back().key, "o");
}

TEST(JsonReaderTest, DecodesUnicodeEscapes) {
  const auto doc = ParseJson("\"\\u0041\\u00e9\\ud83d\\ude00\\n\\t\\/\"");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->str, "A\xC3\xA9\xF0\x9F\x98\x80\n\t/");
}

TEST(JsonReaderTest, RejectsDuplicateKeysAtAnyDepth) {
  EXPECT_FALSE(ParseJson("{\"a\": 1, \"a\": 2}").ok());
  EXPECT_FALSE(ParseJson("{\"x\": {\"a\": 1, \"a\": 1}}").ok());
  EXPECT_FALSE(ParseJson("[{\"a\": 1}, {\"b\": [{\"c\": 1, \"c\": 2}]}]").ok());
  EXPECT_TRUE(ParseJson("[{\"a\": 1}, {\"a\": 2}]").ok())
      << "the same key in sibling objects is fine";
}

TEST(JsonReaderTest, RejectsOverflowAndNonFiniteNumbers) {
  EXPECT_FALSE(ParseJson("18446744073709551616").ok());
  EXPECT_FALSE(ParseJson("18446744073709551617").ok());
  EXPECT_FALSE(ParseJson("-9223372036854775809").ok());
  EXPECT_FALSE(ParseJson("1e400").ok());
  EXPECT_FALSE(ParseJson("-1e400").ok());
  EXPECT_TRUE(ParseJson("1e-400").ok()) << "underflow rounds to zero";
}

TEST(JsonReaderTest, RejectsWhatJsonDoesNotAllow) {
  for (const char* bad :
       {"", " ", "{", "}", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "{a: 1}",
        "'a'", "01", "+1", ".5", "1.", "1e", "-", "0x10", "nan", "inf",
        "tru", "nul", "\"abc", "\"a\\q\"", "\"\\u12\"", "\"\\ud800\"",
        "\"\\udc00\"", "\"tab\there\"", "{} {}", "1 2", "[1] x"}) {
    const auto doc = ParseJson(bad);
    EXPECT_FALSE(doc.ok()) << "accepted: " << bad;
  }
}

TEST(JsonReaderTest, ErrorsNameTheByteOffset) {
  const auto dup = ParseJson("{\"a\": 1, \"a\": 2}");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate key \"a\" at offset 9"),
            std::string::npos)
      << dup.status().message();
  const auto trailing = ParseJson("{} x");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("at offset 3"),
            std::string::npos)
      << trailing.status().message();
}

TEST(JsonReaderTest, RejectsNestingBeyondTheDepthLimit) {
  EXPECT_TRUE(ParseJson(std::string(64, '[') + std::string(64, ']')).ok());
  EXPECT_FALSE(ParseJson(std::string(65, '[') + std::string(65, ']')).ok());
  EXPECT_FALSE(ParseJson(std::string(100000, '[')).ok());
}

TEST(JsonEscapeTest, EveryByteRoundTripsThroughTheReader) {
  std::string text;
  for (int c = 1; c < 128; ++c) {
    text.push_back(static_cast<char>(c));
  }
  const std::string quoted = JsonQuote(text);
  for (const char c : quoted) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  }
  const auto doc = ParseJson(quoted);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->str, text);
  EXPECT_EQ(JsonQuote("a\"b\\c\nd\te\x01"), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriterTest, FlatObjectSortsKeysOnePerLine) {
  JsonValue object = JsonValue::Object();
  object.members.push_back({"b", JsonValue::Uint(2)});
  object.members.push_back({"a", JsonValue::String("x\"y")});
  object.members.push_back({"c", JsonValue::Bool(true)});
  EXPECT_EQ(WriteFlatJsonObject(object),
            "{\n  \"a\": \"x\\\"y\",\n  \"b\": 2,\n  \"c\": true\n}\n");
}

TEST(JsonFieldsTest, UnknownMissingAndWrongKindKeysAreErrors) {
  bool flag = false;
  std::uint64_t count = 0;
  std::string name;
  const std::vector<JsonField> fields = {
      BoolField("flag", &flag), UintField("count", &count),
      Optional(StringField("name", &name))};
  const auto read = [&](const char* text) {
    const auto doc = ParseJson(text);
    EXPECT_TRUE(doc.ok()) << text;
    return ReadJsonFields(*doc, fields, "test");
  };
  EXPECT_TRUE(read("{\"flag\": true, \"count\": 3}").ok());
  EXPECT_TRUE(flag);
  EXPECT_EQ(count, 3u);
  EXPECT_TRUE(read("{\"flag\": false, \"count\": 4, \"name\": \"n\"}").ok());
  EXPECT_EQ(name, "n");
  EXPECT_FALSE(read("{\"flag\": true}").ok()) << "missing required key";
  EXPECT_FALSE(read("{\"flag\": true, \"count\": 3, \"x\": 1}").ok())
      << "unknown key";
  EXPECT_FALSE(read("{\"flag\": \"true\", \"count\": 3}").ok())
      << "string for a bool";
  EXPECT_FALSE(read("{\"flag\": true, \"count\": -3}").ok())
      << "negative for an unsigned";
  EXPECT_FALSE(read("{\"flag\": true, \"count\": 3.0}").ok())
      << "fraction for an integer";
  EXPECT_FALSE(read("[]").ok()) << "not an object";

  // The declaration that read the values writes them back.
  ASSERT_TRUE(read("{\"flag\": false, \"count\": 4, \"name\": \"n\"}").ok());
  JsonValue out = JsonValue::Object();
  AppendJsonFields(fields, &out);
  EXPECT_EQ(WriteFlatJsonObject(out),
            "{\n  \"count\": 4,\n  \"flag\": false,\n  \"name\": \"n\"\n}\n");
}

TEST(JsonFieldsTest, IntFieldsRejectValuesTheirMemberCannotHold) {
  int value = 0;
  const std::vector<JsonField> fields = {IntField("v", &value, -2, 5)};
  const auto read = [&](const char* text) {
    return ReadJsonFields(*ParseJson(text), fields, "test");
  };
  EXPECT_TRUE(read("{\"v\": -2}").ok());
  EXPECT_EQ(value, -2);
  EXPECT_TRUE(read("{\"v\": 5}").ok());
  EXPECT_EQ(value, 5);
  EXPECT_FALSE(read("{\"v\": 6}").ok());
  EXPECT_FALSE(read("{\"v\": -3}").ok());
  EXPECT_FALSE(read("{\"v\": 4294967301}").ok()) << "would narrow to 5";
}

TEST(JsonFieldsTest, ConfigNamesWithEscapesRoundTrip) {
  hwmodel::HwConfig hw;
  hw.name = "quote\" backslash\\ tab\t";
  const auto hw_back = hwmodel::ParseHwConfig(hwmodel::WriteHwConfig(hw));
  ASSERT_TRUE(hw_back.ok()) << hw_back.status().ToString();
  EXPECT_EQ(hw_back->name, hw.name);

  obs::SloSpec slo;
  slo.name = "line\nbreak \"quoted\"";
  const auto slo_back = obs::ParseSloSpec(obs::WriteSloSpec(slo));
  ASSERT_TRUE(slo_back.ok()) << slo_back.status().ToString();
  EXPECT_EQ(slo_back->name, slo.name);
  EXPECT_EQ(obs::WriteSloSpec(*slo_back), obs::WriteSloSpec(slo));
}

TEST(FlagsTest, ParseUintTakesPlainDecimalOnly) {
  std::uint64_t v = 7;
  EXPECT_TRUE(ParseUint("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "\t1", "1x", "0x10",
                          "18446744073709551616", "99999999999999999999"}) {
    v = 7;
    EXPECT_FALSE(ParseUint(bad, &v)) << "accepted \"" << bad << "\"";
    EXPECT_EQ(v, 7u) << "a rejected value must leave the output alone";
  }
  EXPECT_FALSE(ParseUint(nullptr, &v));
}

TEST(FlagsTest, ParseDoubleTakesFiniteNumbersOnly) {
  double v = 7;
  EXPECT_TRUE(ParseDouble("0.99", &v));
  EXPECT_DOUBLE_EQ(v, 0.99);
  EXPECT_TRUE(ParseDouble("-1", &v));
  EXPECT_DOUBLE_EQ(v, -1.0) << "the sign is the caller's range check";
  EXPECT_TRUE(ParseDouble("2e3", &v));
  EXPECT_DOUBLE_EQ(v, 2000.0);
  for (const char* bad : {"", " 1", "1 ", "\t1", "1x", "nan", "NAN", "inf",
                          "-inf", "infinity", "1e999", "-1e999", "0x10",
                          "0X1p4"}) {
    v = 7;
    EXPECT_FALSE(ParseDouble(bad, &v)) << "accepted \"" << bad << "\"";
    EXPECT_EQ(v, 7.0) << "a rejected value must leave the output alone";
  }
  EXPECT_FALSE(ParseDouble(nullptr, &v));
}

TEST(FlagsTest, SplitListKeepsEmptyElements) {
  EXPECT_EQ(SplitList("btree,hashmap"),
            (std::vector<std::string>{"btree", "hashmap"}));
  EXPECT_EQ(SplitList("4"), (std::vector<std::string>{"4"}));
  EXPECT_EQ(SplitList(""), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitList(",2,"), (std::vector<std::string>{"", "2", ""}));
}

TEST(FlagsTest, ParseListParsesEveryElementStrictly) {
  std::vector<int> counts = {7};
  EXPECT_TRUE(ParseList("2,4,8", ParseCount, &counts));
  EXPECT_EQ(counts, (std::vector<int>{2, 4, 8}));
  std::vector<double> gbps;
  EXPECT_TRUE(ParseList("2.5,4e0", ParseDouble, &gbps));
  EXPECT_EQ(gbps, (std::vector<double>{2.5, 4.0}));
  for (const char* bad : {"", "2,", ",2", "2,,4", "1e0,2", "2.0", "0", " 4",
                          "0x10", "-1"}) {
    counts = {7};
    EXPECT_FALSE(ParseList(bad, ParseCount, &counts)) << "accepted " << bad;
    EXPECT_EQ(counts, (std::vector<int>{7})) << "must leave the list alone";
  }
  for (const char* bad : {"", "4,", " 4", "0x10", "4,nan"}) {
    EXPECT_FALSE(ParseList(bad, ParseDouble, &gbps)) << "accepted " << bad;
  }
}

TEST(FlagsTest, WorkloadFlagsTakeOnlyTheSharedFlags) {
  WorkloadFlags flags = {.ops = 400, .initial_keys = 500};
  EXPECT_EQ(ParseWorkloadFlag("--ops=12", &flags), FlagMatch::kTaken);
  EXPECT_EQ(ParseWorkloadFlag("--threads=3", &flags), FlagMatch::kTaken);
  EXPECT_EQ(ParseWorkloadFlag("--mechanism=cow", &flags), FlagMatch::kTaken)
      << "names are checked when resolved, not when parsed";
  EXPECT_EQ(flags.ops, 12u);
  EXPECT_EQ(flags.threads, 3);
  EXPECT_EQ(flags.initial_keys, 500u);

  for (const char* bad : {"--threads=0", "--ops=-1", "--seed=x",
                          "--initial-keys=1.5", "--threads=2147483648"}) {
    EXPECT_EQ(ParseWorkloadFlag(bad, &flags), FlagMatch::kBadValue) << bad;
  }
  EXPECT_EQ(flags.ops, 12u) << "a bad value must leave the flags alone";
  EXPECT_EQ(flags.threads, 3);

  for (const char* other : {"--workload=btree", "--workloads=btree",
                            "--units=4", "--opsx=1", "--ops", "--quiet"}) {
    EXPECT_EQ(ParseWorkloadFlag(other, &flags), FlagMatch::kNotMine) << other;
  }
}

TEST(FlagsTest, ResolveTakesOnlyTheNameTables) {
  WorkloadFlags flags = {.ops = 9, .initial_keys = 50};
  flags.threads = 2;
  const StatusOr<ResolvedWorkload> resolved =
      ResolveWorkloadFlags(flags, "btree");
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(resolved->options.mode, ExecMode::kNdpMultiDelayed);
  EXPECT_EQ(resolved->options.max_threads, 2);
  EXPECT_FALSE(resolved->options.retain_crash_state);
  EXPECT_EQ(resolved->run.workload, "btree");
  EXPECT_EQ(resolved->run.config.mechanism, Mechanism::kLogging);
  EXPECT_EQ(resolved->run.config.threads, 2);
  EXPECT_EQ(resolved->run.config.initial_keys, 50u);
  EXPECT_EQ(resolved->run.config.seed, 7u);
  EXPECT_EQ(resolved->run.ops, 9u);
  EXPECT_FALSE(resolved->run.op_seed.has_value());

  for (const char* mechanism : {"cow", "redo"}) {
    flags.mechanism = mechanism;
    EXPECT_EQ(ResolveWorkloadFlags(flags, "btree").status().code(),
              StatusCode::kInvalidArgument)
        << mechanism;
  }
  flags.mechanism = "shadow_paging";
  flags.mode = "nearpm";
  EXPECT_EQ(ResolveWorkloadFlags(flags, "btree").status().code(),
            StatusCode::kInvalidArgument);

  // The usage text lists exactly what resolves.
  EXPECT_EQ(JoinNames(MechanismNames()),
            "logging | redo_logging | checkpointing | shadow_paging");
  EXPECT_EQ(JoinNames(ExecModeNames()),
            "baseline | nearpm_sd | nearpm_md_swsync | nearpm_md");
}

TEST(FlagsTest, MatchFlagShapes) {
  const char* value = nullptr;
  EXPECT_TRUE(MatchFlag("--ops=12", "--ops", &value));
  EXPECT_STREQ(value, "12");
  EXPECT_FALSE(MatchFlag("--ops", "--ops", &value)) << "needs a value";
  EXPECT_FALSE(MatchFlag("--opsx=1", "--ops", &value));

  EXPECT_TRUE(MatchFlagOrBare("--systematic", "--systematic", &value));
  EXPECT_EQ(value, nullptr);
  EXPECT_TRUE(MatchFlagOrBare("--systematic=4", "--systematic", &value));
  EXPECT_STREQ(value, "4");
  EXPECT_FALSE(MatchFlagOrBare("--repl-groups=2", "--repl", &value));
}

}  // namespace
}  // namespace nearpm
