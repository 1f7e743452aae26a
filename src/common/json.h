// The one JSON reader, string escaper and schema binding in the repo. Every
// JSON input -- hardware configs, SLO specs, crash and litmus repros, flight
// dump headers, and the tests that check emitted JSON -- reads through it.
//
// The reader takes RFC 8259 JSON and nothing laxer. A duplicate key at any
// depth, an integer literal that overflows, a non-finite number, a raw
// control character inside a string and trailing content are all errors,
// and every error names its byte offset. A file that the reader accepts is
// therefore one that means exactly one thing.
//
// The schema binding (JsonField, ReadJsonFields) is the one place that
// applies "an unknown, missing-required or wrong-kind key is an error". A
// schema declares each key once, bound to the C++ value it fills, and the
// same declaration drives writing (AppendJsonFields).
#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <climits>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/name_table.h"
#include "src/common/status.h"

namespace nearpm {

struct JsonMember;

struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kUint,    // a non-negative integer literal, exact
    kInt,     // a negative integer literal, exact
    kDouble,  // a literal with a fraction or an exponent
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::uint64_t uint = 0;  // kUint
  std::int64_t sint = 0;   // kInt
  // Every numeric kind: the literal as strtod reads it.
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;     // kArray
  std::vector<JsonMember> members;  // kObject, in document order
  // Byte range [begin, end) of the value in the text ParseJson read.
  std::size_t begin = 0;
  std::size_t end = 0;

  bool is_number() const {
    return kind == Kind::kUint || kind == Kind::kInt || kind == Kind::kDouble;
  }
  // The member named `key`, or nullptr (also when this is not an object).
  const JsonValue* Find(std::string_view key) const;

  static JsonValue Bool(bool b);
  static JsonValue Uint(std::uint64_t n);
  static JsonValue String(std::string s);
  static JsonValue Object();
};

struct JsonMember {
  std::string key;
  JsonValue value;
};

// Parses one JSON document. Errors read "json: <problem> at offset <n>".
StatusOr<JsonValue> ParseJson(std::string_view text);

// Appends `text` escaped for a JSON string body: quote, backslash and every
// control character (\n and \t by name, the rest as \u00XX).
void AppendJsonEscaped(std::string* out, std::string_view text);
// `text` as a quoted JSON string.
std::string JsonQuote(std::string_view text);

// The canonical flat-object form repros use: keys sorted, one
// `  "key": value` per line, a trailing newline. Members must be booleans,
// non-negative integers or strings.
std::string WriteFlatJsonObject(const JsonValue& object);

// ---- Schema binding ---------------------------------------------------------

// One declared key of an object, bound to the value it fills.
struct JsonField {
  std::string key;
  // Absent on read leaves the target untouched.
  bool optional = false;
  // Fills the target from a present value; the error names the problem, the
  // caller adds where and which key.
  std::function<Status(const JsonValue&)> read;
  // The target's value, or nullopt to leave the key out.
  std::function<std::optional<JsonValue>()> write;
};

JsonField BoolField(std::string key, bool* target);
JsonField UintField(std::string key, std::uint64_t* target);
// An integer literal in [min, max]: the value must fit the member it fills.
// Written as a non-negative integer; a range that admits negative values
// makes the field read only.
JsonField IntField(std::string key, int* target, int min = INT_MIN,
                   int max = INT_MAX);
// Any number (read only).
JsonField DoubleField(std::string key, double* target);
JsonField StringField(std::string key, std::string* target);
// Optional on read, and left out on write while it equals `omitted`.
JsonField OptionalStringField(std::string key, std::string* target,
                              std::string omitted);
// A nested object, handed over for a second schema (read only).
JsonField ObjectField(std::string key, const JsonValue** target);
JsonField Optional(JsonField field);

// An enum read and written by name through its table.
template <typename E>
JsonField NamedField(std::string key, E* target, const NameTable<E>* table) {
  JsonField field;
  field.key = std::move(key);
  field.read = [target, table](const JsonValue& v) -> Status {
    if (v.kind != JsonValue::Kind::kString) {
      return InvalidArgument("must be a string");
    }
    const std::optional<E> parsed = table->Parse(v.str);
    if (!parsed) {
      return InvalidArgument("unknown name \"" + v.str + "\"");
    }
    *target = *parsed;
    return Status::Ok();
  };
  field.write = [target, table]() -> std::optional<JsonValue> {
    return JsonValue::String(table->Name(*target));
  };
  return field;
}

// Reads `object` against `fields`. It must be an object; every key must be
// declared, every non-optional key present, and every value of its declared
// kind. Errors read "<where>: ...".
Status ReadJsonFields(const JsonValue& object,
                      const std::vector<JsonField>& fields,
                      std::string_view where);

// Adds each field's current value to `object` (an object).
void AppendJsonFields(const std::vector<JsonField>& fields, JsonValue* object);

}  // namespace nearpm

#endif  // SRC_COMMON_JSON_H_
