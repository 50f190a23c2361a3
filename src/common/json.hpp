// JSON for the service protocol, the pipeline IR and the bench
// reports: a Writer that renders text into one string, and a Value
// tree with its parser for reading.
//
// Writer contract: the caller opens and closes objects and arrays in
// order, writes key() before each member value and never names a key
// twice in one object (nothing checks or replaces a repeat); the
// Writer places the commas. Nothing is sorted: a canonical document
// (sorted keys at every level, like a request's computation key) is
// one whose caller writes each object's keys in lexicographic byte
// order. Output is compact and byte-stable (the result store and the
// request-coalescing key rest on it): integers in decimal, doubles in
// std::to_chars' shortest round-trip form, non-finite doubles as null.
//
// Value is for parsing (and for callers that edit a parsed document);
// its dump() writes through the Writer, members in insertion order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace repro::json {

// Appends `s` as a quoted JSON string to `out`: `"`, `\` and bytes
// 0x00-0x1f escaped, every other byte (UTF-8 included) verbatim.
void escape_string(std::string& out, std::string_view s);

// The Writer's form of a double: shortest round trip, or "null".
std::string format_double(double d);

class Writer {
 public:
  explicit Writer(std::size_t capacity = 0) { out_.reserve(capacity); }

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  // The next member's key; its value follows.
  Writer& key(std::string_view k);

  Writer& null() { return raw("null"); }
  Writer& value(bool b) { return raw(b ? "true" : "false"); }
  Writer& value(double d);
  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  // Every integer type, rendered through int64 (as Value stores it).
  template <class I, class = std::enable_if_t<std::is_integral_v<I>>>
  Writer& value(I i) { return int_value(static_cast<std::int64_t>(i)); }
  // An already-rendered JSON value, embedded verbatim.
  Writer& raw(std::string_view json);

  const std::string& str() const noexcept { return out_; }
  std::string take() noexcept { return std::move(out_); }

 private:
  Writer& open(char c) {
    if (comma_) out_.push_back(',');
    out_.push_back(c);
    comma_ = false;
    return *this;
  }
  Writer& close(char c) {
    out_.push_back(c);
    comma_ = true;
    return *this;
  }
  Writer& int_value(std::int64_t i);

  std::string out_;
  // Whether the last thing written was a complete value, so a comma
  // is due before the next key or value.
  bool comma_ = false;
};

class Value;

// Objects preserve insertion order so a dumped document reads the way
// it was parsed or built.
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  Value() noexcept : type_(Type::kNull) {}
  Value(std::nullptr_t) noexcept : type_(Type::kNull) {}  // NOLINT
  Value(bool b) noexcept : type_(Type::kBool), bool_(b) {}  // NOLINT
  Value(std::int64_t i) noexcept : type_(Type::kInt), int_(i) {}  // NOLINT
  Value(int i) noexcept : Value(static_cast<std::int64_t>(i)) {}  // NOLINT
  Value(std::size_t n)  // NOLINT
      : Value(static_cast<std::int64_t>(n)) {}
  Value(double d) noexcept : type_(Type::kDouble), double_(d) {}  // NOLINT
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Value(std::string_view s) : Value(std::string(s)) {}  // NOLINT
  Value(const char* s) : Value(std::string(s)) {}  // NOLINT

  static Value array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_int() const noexcept { return type_ == Type::kInt; }
  bool is_double() const noexcept { return type_ == Type::kDouble; }
  bool is_number() const noexcept { return is_int() || is_double(); }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  // Accessors assume the matching type (callers check first; the
  // protocol layer funnels mismatches into SL405 diagnostics).
  bool as_bool() const noexcept { return bool_; }
  std::int64_t as_int() const noexcept { return int_; }
  // Numeric read that accepts both JSON number flavours.
  double as_double() const noexcept {
    return is_int() ? static_cast<double>(int_) : double_;
  }
  const std::string& as_string() const noexcept { return str_; }
  const std::vector<Value>& items() const noexcept { return arr_; }
  const std::vector<Member>& members() const noexcept { return obj_; }

  // Array building.
  void push_back(Value v) { arr_.push_back(std::move(v)); }

  // Object building / lookup. set() replaces an existing key in place
  // (keeping its position) or appends a new member.
  void set(std::string key, Value v);
  const Value* find(std::string_view key) const noexcept;

  std::size_t size() const noexcept {
    return is_array() ? arr_.size() : is_object() ? obj_.size() : 0;
  }

  // The tree through the Writer, members in insertion order.
  std::string dump() const;

 private:
  void write(Writer& w) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<Member> obj_;
};

// Parses a complete JSON document (trailing whitespace allowed,
// trailing garbage rejected). On failure returns nullopt and, when
// `error` is non-null, a one-line description with a byte offset.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

}  // namespace repro::json
