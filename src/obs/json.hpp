// Minimal deterministic JSON value: enough for the BENCH_*.json artifacts
// and the benchdiff comparator, nothing more.
//
// Design constraints that a third-party library would fight us on:
//   - Objects are std::map-backed, so dumped keys are always sorted and the
//     serialization is byte-deterministic (the PLATOON_JOBS contract).
//   - Integers and doubles are distinct: counters round-trip exactly as
//     integers; doubles dump via shortest-round-trip std::to_chars.
//   - No locale, no exceptions on the parse path (std::optional instead).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace platoon::obs {

class Json {
public:
    enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

    using Array = std::vector<Json>;
    using Object = std::map<std::string, Json>;

    Json() = default;  ///< null
    static Json boolean(bool b);
    static Json integer(std::int64_t v);
    static Json number(double v);
    static Json string(std::string s);
    static Json array();
    static Json object();

    [[nodiscard]] Type type() const { return type_; }
    [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
    [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
    [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
    [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
    /// Any numeric value (integer or double).
    [[nodiscard]] bool is_number() const {
        return type_ == Type::kInt || type_ == Type::kDouble;
    }
    [[nodiscard]] bool is_int() const { return type_ == Type::kInt; }

    [[nodiscard]] bool as_bool() const { return bool_; }
    [[nodiscard]] std::int64_t as_int() const { return int_; }
    /// Numeric value widened to double (works for kInt too).
    [[nodiscard]] double as_double() const;
    [[nodiscard]] const std::string& as_string() const { return string_; }
    [[nodiscard]] const Array& as_array() const { return array_; }
    [[nodiscard]] Array& as_array() { return array_; }
    [[nodiscard]] const Object& as_object() const { return object_; }
    [[nodiscard]] Object& as_object() { return object_; }

    /// Object member or null-Json if absent / not an object.
    [[nodiscard]] const Json& at(const std::string& key) const;
    void set(std::string key, Json value);

    /// Deterministic serialization: sorted keys (std::map), fixed 2-space
    /// indentation, shortest-round-trip doubles, "\uXXXX" for control chars.
    /// A NaN or infinite double is written as null (JSON has no literal for
    /// it), so it reads back as null, not as a number.
    [[nodiscard]] std::string dump(int indent = 2) const;

    /// Strict-enough parser for our own artifacts (objects, arrays,
    /// strings with escapes, numbers, bools, null). Rejects trailing junk,
    /// duplicate object keys (a std::map would silently drop one value),
    /// and container nesting deeper than 96 levels (bounded recursion).
    [[nodiscard]] static std::optional<Json> parse(std::string_view text);

    friend bool operator==(const Json& a, const Json& b);

private:
    void dump_to(std::string& out, int indent, int depth) const;

    Type type_ = Type::kNull;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

}  // namespace platoon::obs
