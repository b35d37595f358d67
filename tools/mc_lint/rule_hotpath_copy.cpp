// hotpath-copy — protects the zero-copy Normalize/Compare/Hash hot path.
//
// The fast path's perf contract is structural: module content flows from
// GuestView spans through the simd compare kernel and the span-streaming
// hashers without ever being flattened into an owned buffer (the bench
// gate asserts pipeline.acquire.materializations == 0 on a clean scan).
// That property regresses one convenient `Bytes tmp = ...` at a time, so
// this rule fires in any TU that references the hot-path vocabulary
// (adjust_rvas, DigestTable, CanonicalPool, process_block,
// hash_item_content, item_content_equal) on:
//
//   * declaration of an owned `Bytes` local/member — borrow ByteView /
//     GuestView spans, or bump-allocate scratch via arena_content_copy;
//   * a call to `content_copy()` — it heap-allocates a fresh owned buffer
//     (`copy_content(out)` into caller scratch stays allowed);
//   * a pairwise indexed byte compare (`a[i] != b[i]`, `==`, `^`) in a TU
//     that never mentions `simd` — the loop bypasses the compare kernel
//     (simd::mismatch / simd::equal): there is one kernel, covered by the
//     speedup gate, and a private byte loop is covered by nothing.
//
// Sanctioned materialization points (forensics, dump paths) carry an
// explicit `// mc-lint: allow(hotpath-copy)` at the site — the audit
// trail is the point.
#include "rules.hpp"

namespace mc::lint::rules {

namespace {

bool hotpath_tu(const std::vector<Token>& toks) {
  for (const Token& t : toks) {
    if (t.kind != Tok::kIdent) {
      continue;
    }
    if (t.text == "adjust_rvas" || t.text == "DigestTable" ||
        t.text == "CanonicalPool" || t.text == "process_block" ||
        t.text == "hash_item_content" || t.text == "item_content_equal") {
      return true;
    }
  }
  return false;
}

bool mentions_simd(const std::vector<Token>& toks) {
  for (const Token& t : toks) {
    if (t.kind == Tok::kIdent && t.text == "simd") {
      return true;
    }
  }
  return false;
}

bool pairwise_op(const Token& t) {
  return is_punct(t, "==") || is_punct(t, "!=") || is_punct(t, "^");
}

/// Matches `ident [ ident ]` starting at i; on success stores the index
/// identifier and returns the position one past the `]`.
std::size_t match_indexed(const std::vector<Token>& toks, std::size_t i,
                          std::string* index_name) {
  if (i + 3 >= toks.size() || toks[i].kind != Tok::kIdent ||
      !is_punct(toks[i + 1], "[") || toks[i + 2].kind != Tok::kIdent ||
      !is_punct(toks[i + 3], "]")) {
    return std::string::npos;
  }
  *index_name = toks[i + 2].text;
  return i + 4;
}

}  // namespace

void hotpath_copy(const std::vector<Token>& toks, const std::string& file,
                  std::vector<Finding>& out) {
  if (!hotpath_tu(toks)) {
    return;
  }
  const bool uses_kernel = mentions_simd(toks);

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent) {
      continue;
    }
    // Owned-buffer declaration: `Bytes name` (not `Bytes name(` — that is
    // a function returning Bytes, which allocates at the *caller*).
    if (t.text == "Bytes" && i + 1 < toks.size() &&
        toks[i + 1].kind == Tok::kIdent &&
        (i + 2 >= toks.size() || !is_punct(toks[i + 2], "("))) {
      out.push_back(
          {file, t.line, "hotpath-copy",
           "owned 'Bytes " + toks[i + 1].text +
               "' buffer in a hot-path TU materializes module content; "
               "borrow ByteView/GuestView spans or bump-allocate via "
               "arena_content_copy"});
      continue;
    }
    // Allocating extraction: `content_copy(` returns a fresh owned Bytes.
    if (t.text == "content_copy" && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(")) {
      out.push_back(
          {file, t.line, "hotpath-copy",
           "content_copy() heap-allocates an owned copy in a hot-path TU; "
           "stream the spans (for_each_span / hash_item_content) or copy "
           "into arena scratch with arena_content_copy"});
      continue;
    }
    // Pairwise byte compare outside the compare kernel.
    if (!uses_kernel) {
      std::string idx_a;
      const std::size_t after_a = match_indexed(toks, i, &idx_a);
      if (after_a != std::string::npos && after_a < toks.size() &&
          pairwise_op(toks[after_a])) {
        std::string idx_b;
        if (match_indexed(toks, after_a + 1, &idx_b) != std::string::npos &&
            idx_a == idx_b) {
          out.push_back(
              {file, t.line, "hotpath-copy",
               "pairwise byte compare '" + t.text + "[" + idx_a + "] " +
                   toks[after_a].text + " ...' bypasses the simd compare "
                   "kernel in a hot-path TU; use simd::mismatch / "
                   "simd::equal, the one kernel the speedup gate covers"});
        }
      }
    }
  }
}

}  // namespace mc::lint::rules
