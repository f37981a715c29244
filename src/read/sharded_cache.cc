#include "src/read/cache.h"

#include <atomic>
#include <cassert>
#include <cstring>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"

namespace pipelsm {
namespace read {

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

size_t DefaultShardCount() {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 8;
  size_t shards = RoundUpToPowerOfTwo(hw);
  return shards > 16 ? 16 : shards;
}

// A shard's capacity is its own LRU bound, so a shard holding only a few
// charge units evicts by how keys hash rather than by recency. The table
// cache charges one unit per open table, so e.g. 2 tables over 4 shards
// would leave shards that cannot hold any table.
constexpr size_t kMinShardCapacity = 32;

// `requested` (0 = auto) rounded up to a power of two, then halved until
// every shard gets at least kMinShardCapacity.
size_t ShardCount(size_t capacity, size_t requested) {
  size_t shards =
      RoundUpToPowerOfTwo(requested == 0 ? DefaultShardCount() : requested);
  while (shards > 1 && capacity / shards < kMinShardCapacity) shards >>= 1;
  return shards;
}

class ShardedLRUCache final : public Cache {
 public:
  ShardedLRUCache(size_t capacity, size_t num_shards)
      : capacity_(capacity),
        num_shards_(ShardCount(capacity, num_shards)),
        shard_mask_(num_shards_ - 1),
        shards_(num_shards_) {
    // The remainder of an uneven split lands in shard 0 so the shard
    // capacities always sum to `capacity`.
    const size_t per_shard = capacity_ / num_shards_;
    for (auto& shard : shards_) shard.capacity = per_shard;
    shards_[0].capacity += capacity_ - per_shard * num_shards_;
  }

  std::shared_ptr<void> Lookup(const Slice& key) override {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(KeyView(key));
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (miss_counter_ != nullptr) miss_counter_->Add();
      return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hit_counter_ != nullptr) hit_counter_->Add();
    return it->second->value;
  }

  void Insert(const Slice& key, std::shared_ptr<void> value,
              size_t charge) override {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(KeyView(key));
    if (it != shard.index.end()) {
      AdjustUsage(shard, -static_cast<int64_t>(it->second->charge));
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    shard.lru.push_front(Entry{key.ToString(), std::move(value), charge});
    shard.index[std::string_view(shard.lru.front().key)] = shard.lru.begin();
    AdjustUsage(shard, static_cast<int64_t>(charge));
    // Evict from the cold end until this shard fits its capacity slice,
    // but never the entry just inserted: an over-capacity value must
    // still serve the caller that paid to load it.
    while (shard.usage > shard.capacity && shard.lru.size() > 1) {
      EvictLocked(shard, std::prev(shard.lru.end()));
    }
  }

  void Erase(const Slice& key) override {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(KeyView(key));
    if (it == shard.index.end()) return;
    AdjustUsage(shard, -static_cast<int64_t>(it->second->charge));
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }

  size_t ErasePrefix(const Slice& prefix) override {
    size_t erased = 0;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (it->key.size() >= prefix.size() &&
            memcmp(it->key.data(), prefix.data(), prefix.size()) == 0) {
          AdjustUsage(shard, -static_cast<int64_t>(it->charge));
          shard.index.erase(std::string_view(it->key));
          it = shard.lru.erase(it);
          erased++;
        } else {
          ++it;
        }
      }
    }
    return erased;
  }

  uint64_t NewId() override {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  size_t usage() const override {
    return usage_.load(std::memory_order_relaxed);
  }
  size_t capacity() const override { return capacity_; }
  size_t num_shards() const override { return num_shards_; }

  uint64_t hits() const override {
    return hits_.load(std::memory_order_relaxed);
  }
  uint64_t misses() const override {
    return misses_.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const override {
    return evictions_.load(std::memory_order_relaxed);
  }

  void BindStats(obs::Counter* hits, obs::Counter* misses,
                 obs::Counter* evictions, obs::Gauge* usage) override {
    hit_counter_ = hits;
    miss_counter_ = misses;
    eviction_counter_ = evictions;
    usage_gauge_ = usage;
    if (usage_gauge_ != nullptr) {
      usage_gauge_->Set(static_cast<int64_t>(this->usage()));
    }
  }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<void> value;
    size_t charge;
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = MRU
    // Views point into the owning Entry's key string; list nodes are
    // stable so the views survive splices.
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    size_t usage = 0;   // guarded by mu
    size_t capacity = 0;
  };

  static std::string_view KeyView(const Slice& key) {
    return std::string_view(key.data(), key.size());
  }

  Shard& ShardFor(const Slice& key) {
    size_t h = std::hash<std::string_view>()(KeyView(key));
    return shards_[h & shard_mask_];
  }

  void AdjustUsage(Shard& shard, int64_t delta) {
    shard.usage = static_cast<size_t>(
        static_cast<int64_t>(shard.usage) + delta);
    size_t total = usage_.fetch_add(static_cast<uint64_t>(delta),
                                    std::memory_order_relaxed) +
                   static_cast<uint64_t>(delta);
    if (usage_gauge_ != nullptr) {
      usage_gauge_->Set(static_cast<int64_t>(total));
    }
  }

  void EvictLocked(Shard& shard, std::list<Entry>::iterator victim) {
    AdjustUsage(shard, -static_cast<int64_t>(victim->charge));
    shard.index.erase(std::string_view(victim->key));
    shard.lru.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (eviction_counter_ != nullptr) eviction_counter_->Add();
  }

  const size_t capacity_;
  const size_t num_shards_;
  const size_t shard_mask_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> usage_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  obs::Counter* hit_counter_ = nullptr;
  obs::Counter* miss_counter_ = nullptr;
  obs::Counter* eviction_counter_ = nullptr;
  obs::Gauge* usage_gauge_ = nullptr;
};

}  // namespace

std::unique_ptr<Cache> NewShardedLRUCache(size_t capacity,
                                          size_t num_shards) {
  return std::make_unique<ShardedLRUCache>(capacity, num_shards);
}

}  // namespace read
}  // namespace pipelsm
