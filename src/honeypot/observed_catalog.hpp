#pragma once
// The catalogue of files seen in harvested shared-file lists: Table I's
// "distinct files" and "space used", and the names the manager exports
// through the word-frequency anonymiser.
//
// Flat by design. An abuse episode can hand a honeypot hundreds of fresh
// fake ids per list, so a campaign's catalogues reach a million entries;
// a node-based map and one heap string per name spent a third of such a
// campaign allocating, rehashing and freeing. Here the entries live in one
// vector in first-seen order, every name in one char arena addressed by
// end offsets, and the id lookup is an open-addressing index of entry
// numbers with linear probing.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"

namespace edhp::honeypot {

class ObservedCatalog {
 public:
  struct Entry {
    FileId file;
    std::uint32_t size = 0;      ///< bytes, as the first sighting claimed
    std::uint32_t name_end = 0;  ///< end offset of the name in the arena
  };

  /// Make room for `entries` files without regrowing the index or the
  /// entry vector (names still grow the arena as they come).
  void reserve(std::size_t entries);

  /// Record a sighting. Returns true when `file` is new; a repeat keeps the
  /// first sighting's size and name and changes nothing.
  bool insert(const FileId& file, std::uint32_t size, std::string_view name = {});

  /// Distinct files, in first-seen order.
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Sum of the distinct files' sizes.
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  /// Name of the i-th entry (a view into the arena, valid until the next
  /// insert).
  [[nodiscard]] std::string_view name(std::size_t i) const noexcept;

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  /// Slot where `file` sits, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(const FileId& file) const noexcept;
  void rebuild_index(std::size_t slots);

  std::vector<Entry> entries_;
  std::string names_;
  /// Power-of-two table of entry numbers (kEmpty = free), at most half full.
  std::vector<std::uint32_t> index_;
  std::uint64_t bytes_ = 0;
};

}  // namespace edhp::honeypot
