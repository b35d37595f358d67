#include "source.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace mc::lint {

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_blank(const std::string& s) {
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  });
}

ScannedSource scan(const std::string& content) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  ScannedSource out;
  std::string code_line;
  std::string comment_line;
  State state = State::kCode;

  const auto flush_line = [&] {
    out.code.push_back(code_line);
    out.comments.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
  };

  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) {
        state = State::kCode;
      }
      flush_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code_line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kString;
          code_line += '"';
        } else if (c == '\'') {
          state = State::kChar;
          code_line += '\'';
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        comment_line += c;
        code_line += ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code_line += "  ";
          ++i;
        } else {
          comment_line += c;
          code_line += ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          code_line += '"';
        } else {
          code_line += ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          code_line += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code_line += '\'';
        } else {
          code_line += ' ';
        }
        break;
    }
  }
  flush_line();
  return out;
}

std::map<std::size_t, std::set<std::string>> suppressions(
    const ScannedSource& src, std::vector<AllowDirective>* named) {
  static const std::string kMarker = "mc-lint: allow(";
  std::map<std::size_t, std::set<std::string>> by_line;
  for (std::size_t i = 0; i < src.comments.size(); ++i) {
    const std::string& comment = src.comments[i];
    for (std::size_t pos = comment.find(kMarker); pos != std::string::npos;
         pos = comment.find(kMarker, pos + 1)) {
      if (std::count(comment.begin(),
                     comment.begin() + static_cast<std::ptrdiff_t>(pos),
                     '`') %
              2 !=
          0) {
        continue;  // quoted in prose
      }
      const std::size_t open = pos + kMarker.size();
      const std::size_t close = comment.find(')', open);
      if (close == std::string::npos) {
        continue;
      }
      std::stringstream list(comment.substr(open, close - open));
      std::string rule;
      const std::size_t target = is_blank(src.code[i]) ? i + 1 : i;
      while (std::getline(list, rule, ',')) {
        rule.erase(std::remove_if(rule.begin(), rule.end(),
                                  [](char c) {
                                    return std::isspace(
                                               static_cast<unsigned char>(c)) !=
                                           0;
                                  }),
                   rule.end());
        if (!rule.empty()) {
          by_line[target].insert(rule);
          if (named != nullptr) {
            named->push_back({i, rule});
          }
        }
      }
    }
  }
  return by_line;
}

}  // namespace mc::lint
