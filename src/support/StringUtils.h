//===- support/StringUtils.h - String helpers -------------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string plus a handful of predicates the
/// printers and table renderers share, and the one grammar for unsigned
/// numbers that flags and repro headers are read with.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_SUPPORT_STRINGUTILS_H
#define KHAOS_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <vector>

namespace khaos {

/// printf-style formatting into a std::string.
std::string formatStr(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

bool startsWith(const std::string &S, const std::string &Prefix);
bool endsWith(const std::string &S, const std::string &Suffix);

/// Splits on a single character, keeping empty fields.
std::vector<std::string> split(const std::string &S, char Sep);

/// Reads \p Text as a whole unsigned 64-bit number: decimal, or hex after
/// "0x" or "0X". No sign, whitespace or trailing text, at least one digit,
/// and no leading 0 before more decimal digits (octal to strtoull, so
/// ambiguous). False on anything else or on overflow, \p Out untouched.
bool parseUnsigned(const std::string &Text, uint64_t &Out);

} // namespace khaos

#endif // KHAOS_SUPPORT_STRINGUTILS_H
