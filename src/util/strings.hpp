// Small string helpers: splitting, trimming, and number formatting and
// parsing.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hetopt::util {

[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;
[[nodiscard]] std::string to_lower(std::string_view s);

/// Fixed-precision decimal formatting ("%.*f") without iostream state.
[[nodiscard]] std::string format_double(double v, int precision);
/// Like format_double but trims trailing zeros ("1.50" -> "1.5", "2.00" -> "2").
[[nodiscard]] std::string format_trimmed(double v, int max_precision);

/// Parses a double; throws std::invalid_argument with context on failure.
[[nodiscard]] double parse_double(std::string_view s);
/// Parses a non-negative integer; throws std::invalid_argument on failure.
[[nodiscard]] long long parse_int(std::string_view s);

}  // namespace hetopt::util
