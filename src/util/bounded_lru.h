// Bounded least-recently-used map: the one LRU mechanism of the library.
//
// The answer cache (batch/answer_cache.h), the model-bank store
// (batch/model_bank_store.h) and the projection-stream store
// (oracle/projection_store.h) all sit on this class. Each keeps its own
// admission rule and statistics on top; the map itself knows nothing about
// its callers.
//
// Structure: a std::list holds the entries in recency order (front = most
// recently used) and an unordered_map indexes them by key. List nodes never
// move, so a value pointer handed out by Get/Peek/Put stays valid until that
// entry is evicted, overwritten by Put, or cleared.
//
// Capacity <= 0 means unbounded. Put evicts least-recently-used entries
// until the size is back within capacity; the entry just put is the most
// recently used one, so it is never its own victim.
//
// Not thread-safe.
#ifndef DD_UTIL_BOUNDED_LRU_H_
#define DD_UTIL_BOUNDED_LRU_H_

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace dd {
namespace util {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class BoundedLru {
 public:
  /// What one Put did.
  struct PutResult {
    V* value = nullptr;     ///< the stored value (now most recently used)
    bool inserted = false;  ///< false when an existing key was overwritten
    int64_t evicted = 0;    ///< entries dropped to get back within capacity
  };

  explicit BoundedLru(int64_t capacity = 0) : capacity_(capacity) {}

  /// The value for `key`, refreshed to most recently used; null if absent.
  V* Get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// The value for `key` without touching the recency order; null if absent.
  V* Peek(const K& key) {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  /// Stores `value` under `key` as the most recently used entry (an
  /// existing entry is overwritten in place), then evicts from the
  /// least-recently-used end while the size exceeds the capacity.
  PutResult Put(K key, V value) {
    PutResult r;
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      r.value = &it->second->second;
      return r;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(std::move(key), order_.begin());
    r.value = &order_.front().second;
    r.inserted = true;
    while (capacity_ > 0 && size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++r.evicted;
    }
    return r;
  }

  void Clear() {
    index_.clear();
    order_.clear();
  }

  int64_t size() const { return static_cast<int64_t>(index_.size()); }
  int64_t capacity() const { return capacity_; }
  /// Takes effect at the next Put; existing entries are not evicted here.
  void SetCapacity(int64_t capacity) { capacity_ = capacity; }

  /// Visits every entry as fn(key, value), most recently used first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, value] : order_) fn(key, value);
  }

 private:
  using Order = std::list<std::pair<K, V>>;

  int64_t capacity_;
  Order order_;  ///< front = most recently used
  std::unordered_map<K, typename Order::iterator, Hash, Eq> index_;
};

}  // namespace util
}  // namespace dd

#endif  // DD_UTIL_BOUNDED_LRU_H_
