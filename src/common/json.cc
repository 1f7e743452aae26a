#include "src/common/json.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace nearpm {
namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Document() {
    JsonValue root;
    SkipWs();
    if (!Value(&root, 0)) {
      return InvalidArgument(error_);
    }
    SkipWs();
    if (pos_ != text_.size()) {
      Fail("trailing content");
      return InvalidArgument(error_);
    }
    return root;
  }

 private:
  bool Fail(const std::string& problem) {
    if (error_.empty()) {
      error_ = "json: " + problem + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWs() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    out->begin = pos_;
    const bool ok = ValueAt(out, depth);
    out->end = pos_;
    return ok;
  }

  bool ValueAt(JsonValue* out, int depth) {
    if (AtEnd()) {
      return Fail("expected a value");
    }
    switch (Peek()) {
      case '{':
        return Object(out, depth + 1);
      case '[':
        return Array(out, depth + 1);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return String(&out->str);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return Number(out);
    }
  }

  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  bool Digits() {
    if (AtEnd() || !IsDigit(Peek())) {
      return Fail("expected a digit");
    }
    while (!AtEnd() && IsDigit(Peek())) {
      ++pos_;
    }
    return true;
  }

  bool Number(JsonValue* out) {
    const std::size_t start = pos_;
    const bool negative = !AtEnd() && Peek() == '-';
    if (negative) {
      ++pos_;
    }
    if (AtEnd() || !IsDigit(Peek())) {
      return Fail("expected a value");
    }
    if (Peek() == '0') {
      ++pos_;
      if (!AtEnd() && IsDigit(Peek())) {
        return Fail("leading zero in a number");
      }
    } else {
      Digits();
    }
    const std::size_t int_end = pos_;
    bool integral = true;
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      integral = false;
      if (!Digits()) return false;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      integral = false;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) {
        ++pos_;
      }
      if (!Digits()) return false;
    }
    const std::string literal(text_.substr(start, pos_ - start));
    out->number = std::strtod(literal.c_str(), nullptr);
    if (!integral) {
      if (!std::isfinite(out->number)) {
        pos_ = start;
        return Fail("number out of range");
      }
      out->kind = JsonValue::Kind::kDouble;
      return true;
    }
    std::uint64_t magnitude = 0;
    for (std::size_t i = start + (negative ? 1 : 0); i < int_end; ++i) {
      const auto digit = static_cast<std::uint64_t>(text_[i] - '0');
      if (magnitude > (UINT64_MAX - digit) / 10) {
        pos_ = start;
        return Fail("integer overflow");
      }
      magnitude = magnitude * 10 + digit;
    }
    if (!negative) {
      out->kind = JsonValue::Kind::kUint;
      out->uint = magnitude;
      return true;
    }
    constexpr std::uint64_t kMinMagnitude = std::uint64_t{1} << 63;
    if (magnitude > kMinMagnitude) {
      pos_ = start;
      return Fail("integer overflow");
    }
    out->kind = JsonValue::Kind::kInt;
    out->sint = magnitude == kMinMagnitude
                    ? INT64_MIN
                    : -static_cast<std::int64_t>(magnitude);
    return true;
  }

  bool Hex4(std::uint32_t* out) {
    if (pos_ + 4 > text_.size()) {
      return Fail("truncated \\u escape");
    }
    *out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      std::uint32_t d = 0;
      if (c >= '0' && c <= '9') {
        d = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        d = static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        d = static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        --pos_;
        return Fail("bad hex digit in \\u escape");
      }
      *out = *out * 16 + d;
    }
    return true;
  }

  static void AppendUtf8(std::uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool Escape(std::string* out) {
    if (AtEnd()) {
      return Fail("unterminated string");
    }
    const char esc = text_[pos_++];
    switch (esc) {
      case '"':
      case '\\':
      case '/':
        out->push_back(esc);
        return true;
      case 'b':
        out->push_back('\b');
        return true;
      case 'f':
        out->push_back('\f');
        return true;
      case 'n':
        out->push_back('\n');
        return true;
      case 'r':
        out->push_back('\r');
        return true;
      case 't':
        out->push_back('\t');
        return true;
      case 'u': {
        std::uint32_t cp = 0;
        if (!Hex4(&cp)) return false;
        if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return Fail("unpaired surrogate in \\u escape");
        }
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          std::uint32_t low = 0;
          if (text_.substr(pos_, 2) != "\\u") {
            return Fail("unpaired surrogate in \\u escape");
          }
          pos_ += 2;
          if (!Hex4(&low)) return false;
          if (low < 0xDC00 || low > 0xDFFF) {
            return Fail("unpaired surrogate in \\u escape");
          }
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        AppendUtf8(cp, out);
        return true;
      }
      default:
        --pos_;
        return Fail("unknown escape");
    }
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (AtEnd()) {
        return Fail("unterminated string");
      }
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in a string");
      }
      ++pos_;
      if (c == '\\') {
        if (!Escape(out)) return false;
      } else {
        out->push_back(c);
      }
    }
  }

  // The rest of `[...]` or `{...}` after its opening bracket: elements
  // separated by commas up to `close`.
  template <typename ElementFn>
  bool Sequence(char close, const char* what, int depth, ElementFn element) {
    if (depth > kMaxDepth) {
      return Fail("nesting deeper than " + std::to_string(kMaxDepth));
    }
    ++pos_;  // the opening bracket
    SkipWs();
    if (!AtEnd() && Peek() == close) {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!element()) return false;
      SkipWs();
      if (AtEnd()) {
        return Fail(std::string("unterminated ") + what);
      }
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == close) {
        ++pos_;
        return true;
      }
      return Fail(std::string("expected ',' or '") + close + "'");
    }
  }

  bool Array(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    return Sequence(']', "array", depth, [&] {
      out->items.emplace_back();
      return Value(&out->items.back(), depth);
    });
  }

  bool Object(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    return Sequence('}', "object", depth, [&] {
      if (AtEnd() || Peek() != '"') {
        return Fail("expected a key");
      }
      const std::size_t key_pos = pos_;
      std::string key;
      if (!String(&key)) return false;
      if (out->Find(key) != nullptr) {
        pos_ = key_pos;
        return Fail("duplicate key \"" + key + "\"");
      }
      SkipWs();
      if (AtEnd() || Peek() != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipWs();
      out->members.push_back(JsonMember{std::move(key), JsonValue{}});
      return Value(&out->members.back().value, depth);
    });
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

// The flat writer's members are the scalars the repro schemas write.
void AppendScalar(const JsonValue& v, std::string* out) {
  switch (v.kind) {
    case JsonValue::Kind::kBool:
      out->append(v.boolean ? "true" : "false");
      break;
    case JsonValue::Kind::kUint:
      out->append(std::to_string(v.uint));
      break;
    default:
      assert(v.kind == JsonValue::Kind::kString);
      out->append(JsonQuote(v.str));
      break;
  }
}

const char* JsonKindName(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return "a boolean";
    case JsonValue::Kind::kUint:
      return "a non-negative integer";
    case JsonValue::Kind::kInt:
      return "an integer";
    case JsonValue::Kind::kDouble:
      return "a number";
    case JsonValue::Kind::kString:
      return "a string";
    case JsonValue::Kind::kArray:
      return "an array";
    case JsonValue::Kind::kObject:
      return "an object";
  }
  return "?";
}

Status KindError(JsonValue::Kind want) {
  return InvalidArgument(std::string("must be ") + JsonKindName(want));
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const JsonMember& m : members) {
    if (m.key == key) {
      return &m.value;
    }
  }
  return nullptr;
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind = Kind::kBool;
  v.boolean = b;
  return v;
}

JsonValue JsonValue::Uint(std::uint64_t n) {
  JsonValue v;
  v.kind = Kind::kUint;
  v.uint = n;
  v.number = static_cast<double>(n);
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind = Kind::kString;
  v.str = std::move(s);
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind = Kind::kObject;
  return v;
}

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Document();
}

void AppendJsonEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  AppendJsonEscaped(&out, text);
  out += '"';
  return out;
}

std::string WriteFlatJsonObject(const JsonValue& object) {
  std::vector<const JsonMember*> sorted;
  for (const JsonMember& m : object.members) {
    sorted.push_back(&m);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const JsonMember* a, const JsonMember* b) {
              return a->key < b->key;
            });
  std::string out = "{\n";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    out.append("  ");
    out.append(JsonQuote(sorted[i]->key));
    out.append(": ");
    AppendScalar(sorted[i]->value, &out);
    if (i + 1 != sorted.size()) {
      out.push_back(',');
    }
    out.push_back('\n');
  }
  out.append("}\n");
  return out;
}

// ---- Schema binding ---------------------------------------------------------

JsonField BoolField(std::string key, bool* target) {
  JsonField field;
  field.key = std::move(key);
  field.read = [target](const JsonValue& v) -> Status {
    if (v.kind != JsonValue::Kind::kBool) {
      return KindError(JsonValue::Kind::kBool);
    }
    *target = v.boolean;
    return Status::Ok();
  };
  field.write = [target]() -> std::optional<JsonValue> {
    return JsonValue::Bool(*target);
  };
  return field;
}

JsonField UintField(std::string key, std::uint64_t* target) {
  JsonField field;
  field.key = std::move(key);
  field.read = [target](const JsonValue& v) -> Status {
    if (v.kind != JsonValue::Kind::kUint) {
      return KindError(JsonValue::Kind::kUint);
    }
    *target = v.uint;
    return Status::Ok();
  };
  field.write = [target]() -> std::optional<JsonValue> {
    return JsonValue::Uint(*target);
  };
  return field;
}

JsonField IntField(std::string key, int* target, int min, int max) {
  JsonField field;
  field.key = std::move(key);
  field.read = [target, min, max](const JsonValue& v) -> Status {
    const bool in_range =
        (v.kind == JsonValue::Kind::kUint &&
         v.uint <= static_cast<std::uint64_t>(INT64_MAX) &&
         static_cast<std::int64_t>(v.uint) >= min &&
         static_cast<std::int64_t>(v.uint) <= max) ||
        (v.kind == JsonValue::Kind::kInt && v.sint >= min && v.sint <= max);
    if (!in_range) {
      return InvalidArgument("must be an integer in [" + std::to_string(min) +
                             ", " + std::to_string(max) + "]");
    }
    *target = v.kind == JsonValue::Kind::kUint ? static_cast<int>(v.uint)
                                                : static_cast<int>(v.sint);
    return Status::Ok();
  };
  field.write = [target, min]() -> std::optional<JsonValue> {
    if (min < 0) {
      return std::nullopt;
    }
    return JsonValue::Uint(static_cast<std::uint64_t>(*target));
  };
  return field;
}

JsonField DoubleField(std::string key, double* target) {
  JsonField field;
  field.key = std::move(key);
  field.read = [target](const JsonValue& v) -> Status {
    if (!v.is_number()) {
      return KindError(JsonValue::Kind::kDouble);
    }
    *target = v.number;
    return Status::Ok();
  };
  field.write = []() -> std::optional<JsonValue> { return std::nullopt; };
  return field;
}

JsonField StringField(std::string key, std::string* target) {
  JsonField field;
  field.key = std::move(key);
  field.read = [target](const JsonValue& v) -> Status {
    if (v.kind != JsonValue::Kind::kString) {
      return KindError(JsonValue::Kind::kString);
    }
    *target = v.str;
    return Status::Ok();
  };
  field.write = [target]() -> std::optional<JsonValue> {
    return JsonValue::String(*target);
  };
  return field;
}

JsonField OptionalStringField(std::string key, std::string* target,
                              std::string omitted) {
  JsonField field = StringField(std::move(key), target);
  field.optional = true;
  field.write = [target, omitted = std::move(omitted)]()
      -> std::optional<JsonValue> {
    if (*target == omitted) {
      return std::nullopt;
    }
    return JsonValue::String(*target);
  };
  return field;
}

JsonField ObjectField(std::string key, const JsonValue** target) {
  JsonField field;
  field.key = std::move(key);
  field.read = [target](const JsonValue& v) -> Status {
    if (v.kind != JsonValue::Kind::kObject) {
      return KindError(JsonValue::Kind::kObject);
    }
    *target = &v;
    return Status::Ok();
  };
  field.write = []() -> std::optional<JsonValue> { return std::nullopt; };
  return field;
}

JsonField Optional(JsonField field) {
  field.optional = true;
  return field;
}

Status ReadJsonFields(const JsonValue& object,
                      const std::vector<JsonField>& fields,
                      std::string_view where) {
  const std::string prefix(where);
  if (object.kind != JsonValue::Kind::kObject) {
    return InvalidArgument(prefix + ": expected a JSON object");
  }
  for (const JsonMember& m : object.members) {
    const auto field =
        std::find_if(fields.begin(), fields.end(),
                     [&m](const JsonField& f) { return f.key == m.key; });
    if (field == fields.end()) {
      return InvalidArgument(prefix + ": unknown key '" + m.key + "'");
    }
  }
  for (const JsonField& field : fields) {
    const JsonValue* value = object.Find(field.key);
    if (value == nullptr) {
      if (!field.optional) {
        return InvalidArgument(prefix + ": missing key '" + field.key + "'");
      }
      continue;
    }
    const Status st = field.read(*value);
    if (!st.ok()) {
      return InvalidArgument(prefix + ": '" + field.key + "' " +
                             st.message());
    }
  }
  return Status::Ok();
}

void AppendJsonFields(const std::vector<JsonField>& fields,
                      JsonValue* object) {
  for (const JsonField& field : fields) {
    std::optional<JsonValue> value = field.write();
    if (value) {
      object->members.push_back(JsonMember{field.key, std::move(*value)});
    }
  }
}

}  // namespace nearpm
