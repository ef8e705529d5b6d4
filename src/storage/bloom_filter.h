#ifndef EVA_STORAGE_BLOOM_FILTER_H_
#define EVA_STORAGE_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eva::storage {

/// Split-block Bloom filter over sealed-segment keys (docs/STORAGE.md).
///
/// Layout follows the Parquet design: the filter is an array of 256-bit
/// blocks (8 x uint32 words). A key's hash selects one block via a
/// multiply-shift on the high 32 bits, then sets/tests 8 bits — one per
/// word, each position derived from the low 32 bits by an odd salt
/// multiply. Every probe touches a single cache line, so a miss costs one
/// memory access instead of a binary search over the key index.
///
/// No false negatives by construction: MayContain over an inserted hash
/// tests exactly the bits Insert set. False positives short-circuit to the
/// key index (ProbeBatch counts them as bloom_fps), so correctness never
/// depends on the FP rate — only the miss fast-path's effectiveness does.
/// For c bits/key the blocked FP rate tracks (1 - e^{-8/c})^8 within a
/// small blocking penalty; the default 10 bits/key lands under ~2%.
class BloomFilter {
 public:
  /// One 256-bit block; alignment keeps a probe inside one cache line.
  struct alignas(32) Block {
    uint32_t w[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  };

  BloomFilter() = default;

  /// Sizes the filter for `num_keys` keys at `bits_per_key` and inserts
  /// every hash. An empty key set or bits_per_key <= 0 leaves the filter
  /// disabled (MayContain returns true: behave as if absent).
  void Build(const std::vector<uint64_t>& hashes, int bits_per_key);

  void Insert(uint64_t hash) {
    if (blocks_.empty()) return;
    Block& b = blocks_[BlockIndex(hash)];
    uint32_t h = static_cast<uint32_t>(hash);
    for (int i = 0; i < 8; ++i) b.w[i] |= Mask(h, i);
  }

  /// True when the hash may be present; false proves absence.
  bool MayContain(uint64_t hash) const {
    if (blocks_.empty()) return true;
    const Block& b = blocks_[BlockIndex(hash)];
    uint32_t h = static_cast<uint32_t>(hash);
    for (int i = 0; i < 8; ++i) {
      if ((b.w[i] & Mask(h, i)) == 0) return false;
    }
    return true;
  }

  bool enabled() const { return !blocks_.empty(); }
  size_t num_blocks() const { return blocks_.size(); }
  size_t SizeBytes() const { return blocks_.size() * sizeof(Block); }

  /// Raw words for persistence (8 per block, little-endian order).
  const std::vector<Block>& blocks() const { return blocks_; }
  /// Rebuilds from persisted words; count must be a multiple of 8.
  void RestoreBlocks(std::vector<Block> blocks) {
    blocks_ = std::move(blocks);
  }

 private:
  size_t BlockIndex(uint64_t hash) const {
    // Multiply-shift range reduction on the high hash bits: unbiased-ish
    // mapping of [0, 2^32) onto [0, num_blocks) without a modulo.
    uint64_t hi = hash >> 32;
    return static_cast<size_t>((hi * blocks_.size()) >> 32);
  }

  static uint32_t Mask(uint32_t h, int i) {
    // Odd constants from the Parquet split-block design: each word gets an
    // independent bit position in [0, 32).
    static constexpr uint32_t kSalt[8] = {
        0x47b6137bU, 0x44974d91U, 0x8824ad5bU, 0xa2b7289dU,
        0x705495c7U, 0x2df1424bU, 0x9efc4947U, 0x5c6bfb31U};
    return 1U << ((h * kSalt[i]) >> 27);
  }

  std::vector<Block> blocks_;
};

/// Hash of a ViewKey for the Bloom filter: a splitmix64-style finalizer
/// over the packed (frame, obj) pair. Pure function of the key, so filter
/// decisions are deterministic.
inline uint64_t HashViewKey(int64_t frame, int64_t obj) {
  uint64_t x = static_cast<uint64_t>(frame) * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(obj);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace eva::storage

#endif  // EVA_STORAGE_BLOOM_FILTER_H_
