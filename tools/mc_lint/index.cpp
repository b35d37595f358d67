#include "index.hpp"

#include <algorithm>

namespace mc::lint {

namespace {

/// Identifiers that look like `name(` but are never function definitions
/// or interesting call sites.
bool is_control_word(const std::string& s) {
  static const std::set<std::string> kWords = {
      "if",       "for",     "while",         "switch",   "catch",
      "return",   "sizeof",  "alignof",       "decltype", "static_assert",
      "constexpr", "case",   "new",           "delete",   "assert",
      "alignas",  "noexcept", "throw",        "operator", "defined",
  };
  return kWords.count(s) > 0;
}

bool is_lock_class(const std::string& s) {
  return s == "scoped_lock" || s == "lock_guard" || s == "unique_lock" ||
         s == "shared_lock";
}

/// Joined text of a token range (receiver/argument expressions): word
/// tokens separated only by the puncts between them, no whitespace —
/// `pool . mutex` becomes "pool.mutex".
std::string join_tokens(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end; ++i) {
    out += toks[i].text;
  }
  return out;
}

/// Splits the argument list of the call/ctor parens (open..close) at
/// top-level commas; returns each argument's joined text.
std::vector<std::string> split_args(const std::vector<Token>& toks,
                                    std::size_t open, std::size_t close) {
  std::vector<std::string> args;
  std::size_t arg_begin = open + 1;
  int depth = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kPunct) {
      continue;
    }
    if (t.text == "(" || t.text == "[" || t.text == "{") {
      ++depth;
    } else if (t.text == ")" || t.text == "]" || t.text == "}") {
      --depth;
    } else if (t.text == "," && depth == 0) {
      args.push_back(join_tokens(toks, arg_begin, i));
      arg_begin = i + 1;
    }
  }
  if (arg_begin < close) {
    args.push_back(join_tokens(toks, arg_begin, close));
  }
  return args;
}

/// Identifier arguments only (top level of the call parens) — the tokens
/// the condvar `wait(lock)` exception matches against.
std::vector<std::string> ident_args(const std::vector<Token>& toks,
                                    std::size_t open, std::size_t close) {
  std::vector<std::string> out;
  int depth = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const Token& t = toks[i];
    if (t.kind == Tok::kPunct) {
      if (t.text == "(" || t.text == "[" || t.text == "{") {
        ++depth;
      } else if (t.text == ")" || t.text == "]" || t.text == "}") {
        --depth;
      }
    } else if (t.kind == Tok::kIdent && depth == 0) {
      out.push_back(t.text);
    }
  }
  return out;
}

/// The receiver chain of a call: for `pool.pipeline->pool_scan(`, the
/// idents {"pool", "pipeline"} walking left from the callee.
std::vector<std::string> receiver_chain(const std::vector<Token>& toks,
                                        std::size_t callee_idx) {
  std::vector<std::string> out;
  std::size_t j = callee_idx;
  while (j >= 2) {
    const Token& sep = toks[j - 1];
    if (!is_punct(sep, ".") && !is_punct(sep, "->") && !is_punct(sep, "::")) {
      break;
    }
    if (toks[j - 2].kind != Tok::kIdent) {
      break;
    }
    out.push_back(toks[j - 2].text);
    j -= 2;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace

bool is_blocking_callee(const std::string& name) {
  static const std::set<std::string> kBlocking = {
      // Pool scheduling / drain.
      "submit", "wait_idle", "pool_scan", "drain",
      // Waits (the wait(held_guard) condvar pattern is excepted by the
      // rule itself).
      "wait", "wait_for", "wait_until", "sleep_for", "sleep_until",
      // Guest reads: every one is a simulated long operation.
      "read_va", "try_read_va", "read_region", "try_read_region",
      "read_u32", "try_read_u32", "read_u16", "try_read_u16",
      "read_unicode_string", "try_read_unicode_string", "try_symbol_to_va",
      "guest_version", "try_guest_version",
  };
  return kBlocking.count(name) > 0;
}

std::vector<FunctionBody> split_functions(const std::vector<Token>& toks) {
  std::vector<FunctionBody> out;
  std::size_t i = 0;
  while (i < toks.size()) {
    if (!is_punct(toks[i], "(") || i == 0 || toks[i - 1].kind != Tok::kIdent ||
        is_control_word(toks[i - 1].text)) {
      ++i;
      continue;
    }
    const std::size_t close = match_forward(toks, i, "(", ")");
    if (close == std::string::npos) {
      ++i;
      continue;
    }
    // Skip trailing specifiers: const/noexcept/override/final, noexcept(...),
    // trailing return types, and constructor init lists.
    std::size_t k = close + 1;
    bool gave_up = false;
    while (k < toks.size() && !gave_up) {
      const Token& t = toks[k];
      if (t.kind == Tok::kIdent &&
          (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
           t.text == "final" || t.text == "mutable" || t.text == "throw")) {
        ++k;
        if (k < toks.size() && is_punct(toks[k], "(")) {
          const std::size_t c = match_forward(toks, k, "(", ")");
          if (c == std::string::npos) {
            gave_up = true;
            break;
          }
          k = c + 1;
        }
        continue;
      }
      if (is_punct(t, "->")) {
        // Trailing return type: scan to the body/terminator.
        ++k;
        while (k < toks.size() && !is_punct(toks[k], "{") &&
               !is_punct(toks[k], ";") && !is_punct(toks[k], "=")) {
          ++k;
        }
        continue;
      }
      if (is_punct(t, ":")) {
        // Constructor init list: skip `member(expr)` / `member{expr}`
        // groups until the '{' that starts the body.
        ++k;
        while (k < toks.size()) {
          if (is_punct(toks[k], "(")) {
            const std::size_t c = match_forward(toks, k, "(", ")");
            if (c == std::string::npos) {
              gave_up = true;
              break;
            }
            k = c + 1;
          } else if (is_punct(toks[k], "{")) {
            const Token& prev = toks[k - 1];
            if (prev.kind == Tok::kIdent || is_punct(prev, ">")) {
              const std::size_t c = match_forward(toks, k, "{", "}");
              if (c == std::string::npos) {
                gave_up = true;
                break;
              }
              k = c + 1;  // member brace-init
            } else {
              break;  // the body
            }
          } else if (is_punct(toks[k], ";")) {
            gave_up = true;
            break;
          } else {
            ++k;
          }
        }
        continue;
      }
      break;
    }
    if (!gave_up && k < toks.size() && is_punct(toks[k], "{")) {
      const std::size_t end = match_forward(toks, k, "{", "}");
      if (end != std::string::npos) {
        out.push_back({toks[i - 1].text, k, end, toks[i - 1].line});
        i = end + 1;
        continue;
      }
    }
    i = close + 1;
  }
  return out;
}

std::vector<FnEvent> extract_events(const std::vector<Token>& toks,
                                    const FunctionBody& fn) {
  struct ActiveLock {
    HeldLock lock;
    int depth = 0;  // brace depth at declaration
  };
  std::vector<FnEvent> events;
  std::vector<ActiveLock> active;
  int depth = 1;  // inside the body '{'

  const auto held_now = [&] {
    std::vector<HeldLock> held;
    held.reserve(active.size());
    for (const ActiveLock& a : active) {
      held.push_back(a.lock);
    }
    return held;
  };

  std::size_t i = fn.body_begin + 1;
  while (i < fn.body_end) {
    const Token& t = toks[i];
    if (t.kind == Tok::kPunct) {
      if (t.text == "{") {
        ++depth;
      } else if (t.text == "}") {
        --depth;
        std::erase_if(active,
                      [&](const ActiveLock& a) { return a.depth > depth; });
      }
      ++i;
      continue;
    }
    if (t.kind != Tok::kIdent) {
      ++i;
      continue;
    }
    // Lock-guard declaration: scoped_lock/lock_guard/unique_lock
    // [<...>] guard_var ( mutex-args ).
    if (is_lock_class(t.text)) {
      std::size_t j = i + 1;
      if (j < fn.body_end && is_punct(toks[j], "<")) {
        const std::size_t c = match_forward(toks, j, "<", ">");
        if (c == std::string::npos || c >= fn.body_end) {
          ++i;
          continue;
        }
        j = c + 1;
      }
      if (j < fn.body_end && toks[j].kind == Tok::kIdent) {
        const std::string guard = toks[j].text;
        std::size_t open = j + 1;
        if (open < fn.body_end &&
            (is_punct(toks[open], "(") || is_punct(toks[open], "{"))) {
          const char* cl = is_punct(toks[open], "(") ? ")" : "}";
          const char* op = is_punct(toks[open], "(") ? "(" : "{";
          const std::size_t close = match_forward(toks, open, op, cl);
          if (close != std::string::npos && close < fn.body_end) {
            const auto args = split_args(toks, open, close);
            const bool deferred = std::any_of(
                args.begin(), args.end(), [](const std::string& a) {
                  return a.find("defer_lock") != std::string::npos ||
                         a.find("try_to_lock") != std::string::npos ||
                         a.find("adopt_lock") != std::string::npos;
                });
            if (!deferred) {
              for (const std::string& m : args) {
                FnEvent e;
                e.kind = FnEvent::Kind::kAcquire;
                e.name = m;
                e.line = t.line;
                e.held = held_now();
                events.push_back(e);
                active.push_back({{m, guard, t.line}, depth});
              }
            }
            i = close + 1;
            continue;
          }
        }
      }
      ++i;
      continue;
    }
    // Call site: ident '(' where the ident is not a declaration's variable
    // name (prev token an ident) and not a control keyword.
    if (i + 1 < fn.body_end && is_punct(toks[i + 1], "(") &&
        !is_control_word(t.text) && toks[i - 1].kind != Tok::kIdent) {
      const std::size_t close = match_forward(toks, i + 1, "(", ")");
      if (close != std::string::npos && close <= fn.body_end) {
        FnEvent e;
        e.kind = FnEvent::Kind::kCall;
        e.name = t.text;
        e.line = t.line;
        e.args = ident_args(toks, i + 1, close);
        e.receiver = receiver_chain(toks, i);
        e.held = held_now();
        events.push_back(std::move(e));
        // Do not jump the args: nested calls are their own events.
      }
    }
    ++i;
  }
  return events;
}

void FunctionIndex::add(const std::string& file,
                        const std::vector<Token>& toks) {
  // --- Declarations: Fallible<...> / MaybeFault returns, [[nodiscard]]. ---
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent ||
        (t.text != "Fallible" && t.text != "MaybeFault")) {
      continue;
    }
    std::size_t j = i + 1;
    std::string ret = t.text;
    if (t.text == "Fallible") {
      if (j >= toks.size() || !is_punct(toks[j], "<")) {
        continue;
      }
      const std::size_t c = match_forward(toks, j, "<", ">");
      if (c == std::string::npos) {
        continue;
      }
      ret += join_tokens(toks, j, c + 1);
      j = c + 1;
    }
    // (ident ::)* name ( — the last identifier is the function name.
    std::string name;
    int line = 0;
    while (j + 1 < toks.size() && toks[j].kind == Tok::kIdent) {
      if (is_punct(toks[j + 1], "::")) {
        j += 2;
        continue;
      }
      if (is_punct(toks[j + 1], "(")) {
        name = toks[j].text;
        line = toks[j].line;
      }
      break;
    }
    if (name.empty()) {
      continue;
    }
    // [[nodiscard]] immediately before the return type: `] ]` backwards.
    bool nodiscard = false;
    if (i >= 2 && is_punct(toks[i - 1], "]") && is_punct(toks[i - 2], "]")) {
      nodiscard = true;
    }
    fallible_.insert(name);
    if (decls_.count(name) == 0) {
      decls_[name] = {name, ret, nodiscard, true, file, line};
    }
  }

  // --- Behavioural summaries. ---
  for (const FunctionBody& fn : split_functions(toks)) {
    FunctionSummary s;
    s.name = fn.name;
    s.file = file;
    s.line = fn.line;
    s.events = extract_events(toks, fn);
    for (const FnEvent& e : s.events) {
      if (e.kind == FnEvent::Kind::kAcquire) {
        s.lock_order.push_back(e.name);
      }
    }
    if (s.events.empty()) {
      continue;
    }
    if (summary_by_name_.count(s.name) == 0) {
      summary_by_name_[s.name] = summaries_.size();
    }
    summaries_.push_back(std::move(s));
  }
}

const FunctionSummary* FunctionIndex::summary(const std::string& name) const {
  const auto it = summary_by_name_.find(name);
  return it == summary_by_name_.end() ? nullptr : &summaries_[it->second];
}

}  // namespace mc::lint
