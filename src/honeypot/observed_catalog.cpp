#include "honeypot/observed_catalog.hpp"

#include <cstring>
#include <limits>
#include <stdexcept>

namespace edhp::honeypot {
namespace {

/// MurmurHash3's 64-bit finalizer: every input bit reaches every output bit.
std::uint64_t fmix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Both 64-bit words of the id pass through the finalizer: synthetic ids
/// (`FileId::from_words(i, 9)`) differ only in their low bytes, and the
/// index keeps only the low bits of the hash.
std::uint64_t hash_id(const FileId& file) noexcept {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::memcpy(&lo, file.bytes().data(), sizeof lo);
  std::memcpy(&hi, file.bytes().data() + sizeof lo, sizeof hi);
  return fmix64(lo ^ fmix64(hi));
}

constexpr std::size_t kMinSlots = 16;

}  // namespace

void ObservedCatalog::reserve(std::size_t entries) {
  entries_.reserve(entries);
  std::size_t slots = kMinSlots;
  while (slots < 2 * entries) slots *= 2;
  if (slots > index_.size()) rebuild_index(slots);
}

bool ObservedCatalog::insert(const FileId& file, std::uint32_t size,
                             std::string_view name) {
  if (2 * (entries_.size() + 1) > index_.size()) {
    rebuild_index(index_.empty() ? kMinSlots : 2 * index_.size());
  }
  const std::size_t slot = probe(file);
  if (index_[slot] != kEmpty) return false;
  if (names_.size() + name.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("ObservedCatalog: name arena exceeds 4 GiB");
  }
  names_.append(name);
  index_[slot] = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back({file, size, static_cast<std::uint32_t>(names_.size())});
  bytes_ += size;
  return true;
}

std::string_view ObservedCatalog::name(std::size_t i) const noexcept {
  const std::uint32_t begin = i == 0 ? 0 : entries_[i - 1].name_end;
  return std::string_view(names_).substr(begin, entries_[i].name_end - begin);
}

std::size_t ObservedCatalog::probe(const FileId& file) const noexcept {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = hash_id(file) & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t e = index_[slot];
    if (e == kEmpty || entries_[e].file == file) return slot;
  }
}

void ObservedCatalog::rebuild_index(std::size_t slots) {
  index_.assign(slots, kEmpty);
  const std::size_t mask = slots - 1;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    std::size_t slot = hash_id(entries_[e].file) & mask;
    while (index_[slot] != kEmpty) slot = (slot + 1) & mask;
    index_[slot] = static_cast<std::uint32_t>(e);
  }
}

}  // namespace edhp::honeypot
