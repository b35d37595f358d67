// Fixture: hotpath-copy (scanned by mc_analyze tests, never compiled).
// This TU references the hot-path vocabulary (adjust_rvas) and never
// mentions the simd kernel, so owned-buffer materializations and raw
// pairwise byte compares are flagged; borrowing spans, filling caller
// scratch, arena copies and the suppressed forensics-style site are not.
#include "modchecker/rva_adjust.hpp"

void normalize(MutableByteView s1, MutableByteView s2) {
  adjust_rvas(s1, 0x1000, s2, 0x2000);
}

void materializes(const IntegrityItem& item) {
  Bytes flat = item.content_copy();  // flagged twice: owned decl + copy
  consume(flat);
}

void sanctioned_dump(const IntegrityItem& item) {
  Bytes dump = item.content_copy();  // mc-lint: allow(hotpath-copy)
  consume(dump);
}

void borrows(const IntegrityItem& item, Arena& arena) {
  MutableByteView scratch = arena_content_copy(arena, item);  // ok: arena
  unsigned char buf[16];
  item.copy_content(MutableByteView(buf));  // ok: fills caller scratch
  consume(scratch);
}

int scalar_diff(const unsigned char* a, const unsigned char* b, int n) {
  int diffs = 0;
  for (int i = 0; i < n; ++i) {
    if (a[i] != b[i]) {  // flagged: bypasses the simd kernel
      ++diffs;
    }
  }
  return diffs;
}

void rewrite(unsigned char* a, const unsigned char* b, int i) {
  a[i] = b[i];  // ok: assignment, not a pairwise compare
}
