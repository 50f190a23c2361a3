// A bounded, thread-safe least-recently-used cache from string keys
// to values: the one LRU behind the service's in-memory caches
// (tuner::CalibrationCache, pipeline::StageCache).
//
// It holds at most `capacity` entries and at most `max_bytes` charged
// bytes, an entry being charged its key's length plus sizeof(V); past
// either bound it evicts the least recently used entries. An entry
// charged more than `max_bytes` on its own is never stored. Each key
// is kept once, in its list node; the index looks it up through a
// view of that string.
//
// get_or_make computes a missing value outside the lock, so two racing
// first lookups of one key may both compute (each counts a miss) and
// the first insert wins. That is only sound for a `make` that returns
// the same value for the same key every time, which every user here
// guarantees by construction (a deterministic calibration or tuning).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace repro {

template <class V>
class LruCache {
 public:
  // A capacity below 1 holds one entry.
  explicit LruCache(
      std::size_t capacity,
      std::size_t max_bytes = std::numeric_limits<std::size_t>::max())
      : capacity_(std::max<std::size_t>(capacity, 1)), max_bytes_(max_bytes) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  // The value under `key`: served from the cache (and marked most
  // recently used) when present, else make() computed and stored.
  template <class Make>
  V get_or_make(std::string key, Make&& make) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      const auto it = index_.find(key);
      if (it != index_.end()) {
        ++counters_.hits;
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->second;
      }
      ++counters_.misses;
    }
    V value = make();
    std::lock_guard<std::mutex> lk(mu_);
    if (index_.contains(key)) return value;  // a racing lookup stored it
    const std::size_t charge = charge_of(key);
    if (charge > max_bytes_) {
      ++counters_.evictions;
      return value;
    }
    lru_.emplace_front(std::move(key), value);
    index_.emplace(lru_.front().first, lru_.begin());
    bytes_ += charge;
    while (lru_.size() > capacity_ || bytes_ > max_bytes_) {
      bytes_ -= charge_of(lru_.back().first);
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++counters_.evictions;
    }
    return value;
  }

  struct Counters {
    std::uint64_t entries = 0;    // held now, <= capacity
    std::uint64_t bytes = 0;      // charged now, <= max_bytes
    std::uint64_t hits = 0;       // lookups served from an entry
    std::uint64_t misses = 0;     // lookups that computed
    std::uint64_t evictions = 0;  // entries dropped at a bound
  };
  Counters counters() const {
    std::lock_guard<std::mutex> lk(mu_);
    Counters c = counters_;
    c.entries = lru_.size();
    c.bytes = bytes_;
    return c;
  }

 private:
  using Entry = std::pair<std::string, V>;

  static std::size_t charge_of(std::string_view key) noexcept {
    return key.size() + sizeof(V);
  }

  const std::size_t capacity_;
  const std::size_t max_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // most recently used first
  // Views of the keys in lru_: list nodes never move.
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
      index_;
  std::size_t bytes_ = 0;
  Counters counters_;
};

}  // namespace repro
