#include "storage/bloom_filter.h"

namespace eva::storage {

void BloomFilter::Build(const std::vector<uint64_t>& hashes,
                        int bits_per_key) {
  // At least one block, so tiny segments still get the miss fast path.
  blocks_.assign(NumBlocks(hashes.size(), bits_per_key), Block{});
  for (uint64_t h : hashes) Insert(h);
}

}  // namespace eva::storage
