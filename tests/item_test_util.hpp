// Test helpers for synthetic integrity items.  An item's content is a
// view, so a hand-built item's bytes need a holder: a ContentStore keeps
// each buffer it is given alive and unmoved for as long as the store
// lives.  Declare the store before the items that borrow from it, so it
// outlives them.
#pragma once

#include <deque>
#include <utility>

#include "modchecker/item.hpp"
#include "util/bytes.hpp"
#include "vmi/guest_view.hpp"

namespace mc::test {

class ContentStore {
 public:
  ContentStore() = default;
  ContentStore(const ContentStore&) = delete;
  ContentStore& operator=(const ContentStore&) = delete;

  /// A one-segment view over `bytes`, which the store now holds.
  vmi::GuestView hold(Bytes bytes) {
    // deque: growing never moves a held buffer
    return ByteView(buffers_.emplace_back(std::move(bytes)));
  }

  /// Replaces `item`'s content with a copy of it that `edit` changed.
  template <typename Fn>
  void edit(core::IntegrityItem& item, Fn&& edit) {
    Bytes bytes = item.content_copy();
    edit(bytes);
    item.view = hold(std::move(bytes));
  }

 private:
  std::deque<Bytes> buffers_;
};

}  // namespace mc::test
