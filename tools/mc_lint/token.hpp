// The engine's front end: a real C++ token stream over the sanitized source.
//
// The tokenizer runs on ScannedSource::code (comments and literal contents
// already blanked), so it never sees prose.  It is not a full lexer — no
// preprocessor, no raw strings — but it is exact about the things the
// semantic rules depend on: identifiers, maximal-munch punctuation
// (`::`, `->`, `...`, `==`, ...), string/char literal positions, and the
// (line, column) of every token, which findings report and the line rules'
// adjacency checks (`.size()`) read.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "source.hpp"

namespace mc::lint {

enum class Tok : unsigned char {
  kIdent,   // identifiers and keywords
  kNumber,  // numeric literals (pp-number-ish)
  kString,  // a "..." literal (contents blanked by the stripper)
  kChar,    // a '...' literal
  kPunct,   // operators and punctuation, maximal munch
};

struct Token {
  Tok kind = Tok::kPunct;
  std::string text;
  int line = 0;  // 1-based, matches Finding::line
  int col = 0;   // 0-based start column in the sanitized line
};

/// Tokenizes sanitized source.  Preprocessor lines are tokenized like any
/// other ('#' is a punct), so the line rules see `#include` lines too.
std::vector<Token> tokenize(const ScannedSource& src);

// ---- Stream helpers used by every token rule -------------------------------

/// Index of the matching closer for the opener at `open_idx` (`(`/`)`,
/// `[`/`]`, `{`/`}`, `<`/`>`).  For `<`, a `>>` punct counts as two closes
/// (template-closer munch).  Returns npos when unbalanced.
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open_idx,
                          const char* open, const char* close);

/// Index of the matching opener for the closer at `close_idx`.
/// Returns npos when unbalanced.
std::size_t match_backward(const std::vector<Token>& toks,
                           std::size_t close_idx, const char* open,
                           const char* close);

/// True when the token is a punct with exactly this text.
bool is_punct(const Token& t, const char* text);

/// True when the token is an identifier with exactly this text.
bool is_ident(const Token& t, const char* text);

}  // namespace mc::lint
