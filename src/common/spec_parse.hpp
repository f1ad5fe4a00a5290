// Strict parsing shared by every textual configuration grammar: fault
// schedules (core/faults.hpp), arrival specs (traffic/spec.hpp), failpoint
// schedules (common/failpoint.hpp), chaos scenario fields
// (chaos/scenario.hpp) and the command-line tools' numeric flags.
//
// Numbers.  A value is the whole string — no whitespace, no leading '+',
// no trailing garbage — and must fit its destination type exactly: an
// integer never wraps or narrows, and an integer key never accepts a
// fractional or exponent form ("2.0", "1e0").  Floating-point values must
// be finite ("nan" and "inf" are rejected).
//
// Clauses.  A clause is `name` or `name:key=value[,key=value...]`, and a
// multi-clause spec joins clauses with ';' (empty clauses are skipped).
// A clause rejects an empty field (an empty parameter list, a trailing or
// doubled comma), a field without '=', an empty key or value, and a
// duplicate key; finish() rejects any key the grammar did not consume.
//
// Every error throws lgg::ContractViolation with a one-line message that
// names the offending clause and key.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lgg::common {

/// Parses `text` as a T under the strict number rules above; `what` names
/// the value in the error message.  Instantiated for the 32- and 64-bit
/// integer types and double.
template <typename T>
[[nodiscard]] T parse_number(std::string_view what, std::string_view text);

/// The non-empty ';'-separated clauses of `spec`, as views into it.
[[nodiscard]] std::vector<std::string_view> split_spec(std::string_view spec);

/// One parsed `name[:key=value,...]` clause.  Holds views into `text`,
/// which must outlive the clause.
class SpecClause {
 public:
  /// `context` names the grammar in error messages ("arrival spec").
  SpecClause(std::string_view text, std::string_view context);

  [[nodiscard]] std::string_view name() const { return name_; }

  /// Consumes `key`; nullopt when the clause does not carry it.
  [[nodiscard]] std::optional<std::string_view> take(std::string_view key);
  template <typename T>
  [[nodiscard]] std::optional<T> take_number(std::string_view key) {
    const auto value = take(key);
    if (!value) return std::nullopt;
    return parse<T>(key, *value);
  }
  /// Consumes `key`, which must be present, as a number.
  template <typename T>
  [[nodiscard]] T number(std::string_view key) {
    return parse<T>(key, require(key));
  }
  /// Parses `text` (a value or part of one) as the number `key` holds.
  template <typename T>
  [[nodiscard]] T parse(std::string_view key, std::string_view text) const {
    return parse_number<T>(label_ + ": " + std::string(key), text);
  }

  /// Rejects every key no take, take_number or number call consumed.
  void finish() const;
  [[noreturn]] void fail(const std::string& why) const;

 private:
  [[nodiscard]] std::string_view require(std::string_view key);

  struct Field {
    std::string_view key;
    std::string_view value;
    bool taken = false;
  };
  std::string label_;  ///< "<context> '<text>'"
  std::string_view name_;
  std::vector<Field> fields_;
};

}  // namespace lgg::common
