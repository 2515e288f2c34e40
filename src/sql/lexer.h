/// \file lexer.h
/// \brief SQL tokenizer for the embedded engine and the Qserv frontend.
///
/// Comments (`-- ...` and `/* ... */`) are skipped.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace qserv::sql {

enum class TokenType {
  kEnd,
  kIdentifier,   // bare or `quoted`
  kInt,
  kDouble,
  kString,       // 'literal'
  kComma,
  kDot,
  kSemicolon,
  kLParen,
  kRParen,
  kStar,
  kPlus,
  kMinus,
  kSlash,
  kPercent,
  kEq,           // =
  kNe,           // != or <>
  kLt,
  kLe,
  kGt,
  kGe,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;        // identifier name (unquoted) or raw spelling
  std::int64_t intValue = 0;
  double doubleValue = 0.0;
  std::size_t offset = 0;  // byte offset in the input, for error messages

  /// Case-insensitive keyword match (identifiers only).
  bool is(std::string_view keyword) const;
};

/// Tokenize \p sql fully. Returns kInvalidArgument on malformed input
/// (unterminated string/quote, bad number, stray character).
util::Result<std::vector<Token>> tokenize(std::string_view sql);

}  // namespace qserv::sql
