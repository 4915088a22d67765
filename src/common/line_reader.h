// Strict line-oriented text input, shared by every text format the
// project reads: scenario configs (driver/scenario), fault plans
// (fault/fault_plan) and workload traces (workload/trace_io).
//
// A LineReader walks an std::istream under a source name (a file path,
// or "<inline>" / "<stdin>"), strips '#' comments, skips blank lines,
// and hands back each line's whitespace-separated tokens through strict
// conversions (Token<T>):
//
//   - a number is the WHOLE token: "1.5x" is an error, not 1.5;
//   - a double is finite: "nan", "inf" and out-of-range values are
//     errors;
//   - an unsigned value starts with a digit, so "-1" is an error instead
//     of wrapping to 2^64-1, and must fit its type ("4294967296" is not
//     a u32).
//
// Every defect ends in LineReader::fail, which prints
//
//   <prefix>: <source>:<line>: <what>
//
// and aborts: malformed input is rejected whole, never half-applied.
// The same conversions back the tools' numeric command-line flags
// (flag_value), which exit 2 with a "<flag>: ..." message instead.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <optional>
#include <string>
#include <utility>

namespace anufs {

/// Strict conversion of one whole token to T (double, std::uint64_t or
/// std::uint32_t): parse() returns nullopt on any defect, and kExpected
/// says what the conversion accepts, for diagnostics.
template <typename T>
struct Token;

template <>
struct Token<double> {
  static constexpr const char* kExpected = "a finite number";
  [[nodiscard]] static std::optional<double> parse(const std::string& token) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size() ||
        errno == ERANGE || !std::isfinite(v)) {
      return std::nullopt;
    }
    return v;
  }
};

template <>
struct Token<std::uint64_t> {
  static constexpr const char* kExpected = "a non-negative integer";
  [[nodiscard]] static std::optional<std::uint64_t> parse(
      const std::string& token) {
    // strtoull skips leading blanks and signs and quietly wraps
    // negatives; requiring a digit first rejects all of them.
    if (token.empty() || token[0] < '0' || token[0] > '9') {
      return std::nullopt;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      return std::nullopt;
    }
    return static_cast<std::uint64_t>(v);
  }
};

template <>
struct Token<std::uint32_t> {
  static constexpr const char* kExpected = "an integer in [0, 4294967295]";
  [[nodiscard]] static std::optional<std::uint32_t> parse(
      const std::string& token) {
    const std::optional<std::uint64_t> v = Token<std::uint64_t>::parse(token);
    if (!v.has_value() || *v > 0xffffffffull) return std::nullopt;
    return static_cast<std::uint32_t>(*v);
  }
};

class LineReader {
 public:
  /// `prefix` names the format in diagnostics ("anufs-scenario").
  LineReader(std::istream& is, std::string source, const char* prefix)
      : is_(is), source_(std::move(source)), prefix_(prefix) {}

  /// Advance to the next line that still holds a token once its '#'
  /// comment is stripped; false at the end of input.
  bool next() {
    while (std::getline(is_, text_)) {
      ++line_;
      if (const auto hash = text_.find('#'); hash != std::string::npos) {
        text_.resize(hash);
      }
      pos_ = 0;
      skip_blanks();
      if (pos_ < text_.size()) return true;
    }
    return false;
  }

  /// The next physical line verbatim — no comment stripping, blank
  /// lines included — for a format's magic first line. nullopt at the
  /// end of input.
  [[nodiscard]] std::optional<std::string> raw_line() {
    if (!std::getline(is_, text_)) return std::nullopt;
    ++line_;
    pos_ = text_.size();
    return text_;
  }

  /// The line's next token; fails with "missing <what>" if none is left.
  [[nodiscard]] std::string word(const char* what) {
    if (pos_ >= text_.size()) fail(std::string("missing ") + what);
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && !is_blank(text_[pos_])) ++pos_;
    std::string token = text_.substr(begin, pos_ - begin);
    skip_blanks();
    return token;
  }

  /// The next token converted strictly to T.
  template <typename T>
  [[nodiscard]] T take(const char* what) {
    return as<T>(word(what), what);
  }

  /// `token` (taken from this line) converted strictly to T; fails with
  /// "bad <what> '<token>' (expected ...)".
  template <typename T>
  [[nodiscard]] T as(const std::string& token, const char* what) const {
    const std::optional<T> v = Token<T>::parse(token);
    if (!v.has_value()) {
      fail(std::string("bad ") + what + " '" + token + "' (expected " +
           Token<T>::kExpected + ")");
    }
    return *v;
  }

  /// Fails with "trailing token '<t>'" unless the line is used up.
  void expect_end() {
    if (pos_ < text_.size()) fail("trailing token '" + word("token") + "'");
  }

  /// Prints "<prefix>: <source>:<line>: <what>" (":<line>" is left out
  /// before the first line is read) and aborts. The only exit of every
  /// parse path on malformed input.
  [[noreturn]] void fail(const std::string& what) const {
    if (line_ == 0) {
      std::fprintf(stderr, "%s: %s: %s\n", prefix_, source_.c_str(),
                   what.c_str());
    } else {
      std::fprintf(stderr, "%s: %s:%zu: %s\n", prefix_, source_.c_str(),
                   line_, what.c_str());
    }
    std::abort();
  }

 private:
  static bool is_blank(char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  }
  void skip_blanks() {
    while (pos_ < text_.size() && is_blank(text_[pos_])) ++pos_;
  }

  std::istream& is_;
  std::string source_;
  const char* prefix_;
  std::string text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 0;
};

/// Command-line counterpart of LineReader::as: `arg` converted strictly
/// to T, or "<flag>: bad value '<arg>' (expected ...)" on stderr and
/// exit status 2.
template <typename T>
[[nodiscard]] T flag_value(const char* flag, const char* arg) {
  const std::optional<T> v = Token<T>::parse(arg);
  if (!v.has_value()) {
    std::fprintf(stderr, "%s: bad value '%s' (expected %s)\n", flag, arg,
                 Token<T>::kExpected);
    std::exit(2);
  }
  return *v;
}

}  // namespace anufs
