#include "common/spec_parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/require.hpp"

namespace lgg::common {

template <typename T>
T parse_number(std::string_view what, std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (ok) return value;
  std::string wanted = "a finite number";
  if constexpr (std::is_integral_v<T>) {
    wanted = "an integer in [" + std::to_string(std::numeric_limits<T>::min()) +
             ", " + std::to_string(std::numeric_limits<T>::max()) + "]";
  }
  throw ContractViolation(std::string(what) + " wants " + wanted + ", got '" +
                          std::string(text) + "'");
}

template std::int32_t parse_number(std::string_view, std::string_view);
template std::int64_t parse_number(std::string_view, std::string_view);
template std::uint32_t parse_number(std::string_view, std::string_view);
template std::uint64_t parse_number(std::string_view, std::string_view);
template double parse_number(std::string_view, std::string_view);

std::vector<std::string_view> split_spec(std::string_view spec) {
  std::vector<std::string_view> clauses;
  while (!spec.empty()) {
    const std::size_t semi = spec.find(';');
    const std::string_view clause = spec.substr(0, semi);
    if (!clause.empty()) clauses.push_back(clause);
    spec.remove_prefix(semi == std::string_view::npos ? spec.size()
                                                      : semi + 1);
  }
  return clauses;
}

SpecClause::SpecClause(std::string_view text, std::string_view context)
    : label_(std::string(context) + " '" + std::string(text) + "'") {
  const std::size_t colon = text.find(':');
  name_ = text.substr(0, colon);
  if (colon == std::string_view::npos) return;
  std::string_view rest = text.substr(colon + 1);
  for (;;) {
    const std::size_t comma = rest.find(',');
    const std::string_view field = rest.substr(0, comma);
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == field.size()) {
      fail("expected key=value, got '" + std::string(field) + "'");
    }
    const std::string_view key = field.substr(0, eq);
    for (const Field& seen : fields_) {
      if (seen.key == key) fail("duplicate key '" + std::string(key) + "'");
    }
    fields_.push_back({key, field.substr(eq + 1)});
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
}

std::optional<std::string_view> SpecClause::take(std::string_view key) {
  for (Field& field : fields_) {
    if (field.key == key) {
      field.taken = true;
      return field.value;
    }
  }
  return std::nullopt;
}

std::string_view SpecClause::require(std::string_view key) {
  const auto value = take(key);
  if (!value) fail("missing key '" + std::string(key) + "'");
  return *value;
}

void SpecClause::finish() const {
  for (const Field& field : fields_) {
    if (!field.taken) fail("unknown key '" + std::string(field.key) + "'");
  }
}

void SpecClause::fail(const std::string& why) const {
  throw ContractViolation(label_ + ": " + why);
}

}  // namespace lgg::common
