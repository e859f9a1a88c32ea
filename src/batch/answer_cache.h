// Fingerprinted LRU cache of definite batch answers.
//
// Key contract (docs/BATCHING.md): an entry is addressed by
//
//   (database fingerprint, semantics, canonical query key)
//
// rendered as one string via MakeKey. The fingerprint (util/fingerprint.h)
// is a stable hash of the canonicalized clause multiset, so two loads of
// the same program — in any clause order — share entries, and any clause
// change flips the fingerprint. SetEpoch enforces invalidation: the cache
// remembers the fingerprint it was last used with and drops everything
// when a different one shows up.
//
// "Unknown is never cached": Insert refuses Trilean::kUnknown (counted in
// stats().unknown_rejected). A kUnknown answer means the budget ran out —
// it says nothing about the query, and caching it would freeze a transient
// resource condition into a persistent wrong "answer". Definite answers
// computed under a budget are safe to cache: the anytime contract
// guarantees they equal the unbudgeted answer (docs/ROBUSTNESS.md).
//
// Not thread-safe: the Reasoner performs all lookups/inserts on the batch
// caller's thread, outside the parallel group evaluation.
#ifndef DD_BATCH_ANSWER_CACHE_H_
#define DD_BATCH_ANSWER_CACHE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "semantics/semantics.h"
#include "util/bounded_lru.h"
#include "util/budget.h"

namespace dd {
namespace batch {

class AnswerCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;        ///< LRU entries dropped at capacity
    int64_t invalidations = 0;    ///< full clears on fingerprint change
    int64_t unknown_rejected = 0; ///< Insert(kUnknown) attempts refused
  };

  /// `capacity` <= 0 means unbounded (tests only; servers should bound).
  explicit AnswerCache(int64_t capacity = 4096) : lru_(capacity) {}

  /// The canonical composite key. `brave` tags credulous-mode entries in
  /// the kind segment ("KIND~brave"), so brave and skeptical answers for
  /// the same canonical query never collide while skeptical keys stay
  /// byte-identical to the pre-brave format (existing snapshots load
  /// unchanged).
  static std::string MakeKey(uint64_t fingerprint, SemanticsKind kind,
                             const std::string& canonical_query,
                             bool brave = false);

  /// True for keys minted by MakeKey(..., brave=true). Snapshot
  /// persistence filters these out: snapshots stay skeptical-only
  /// (docs/SERVING.md).
  static bool IsBraveKey(const std::string& key);

  /// Pins the cache to a database fingerprint; entries computed against a
  /// different fingerprint are dropped wholesale (invalidation contract).
  void SetEpoch(uint64_t fingerprint);

  /// Definite cached answer for `key`, if present (refreshes LRU order).
  std::optional<Trilean> Lookup(const std::string& key);

  /// Caches a definite answer; kUnknown is refused, never stored.
  void Insert(const std::string& key, Trilean answer);

  void Clear();

  int64_t size() const { return lru_.size(); }
  int64_t capacity() const { return lru_.capacity(); }
  const Stats& stats() const { return stats_; }

  /// The fingerprint the cache is currently pinned to (via SetEpoch).
  /// Snapshot persistence (src/serve/snapshot.h) stamps this into the
  /// saved file so stale snapshots self-invalidate on load.
  bool epoch_set() const { return epoch_set_; }
  uint64_t epoch() const { return epoch_; }

  /// Iteration over live entries, most recently used first (snapshot
  /// persistence relies on this order; the bench harness uses it to assert
  /// no kUnknown was ever stored).
  void ForEach(
      const std::function<void(const std::string&, Trilean)>& fn) const;

 private:
  bool epoch_set_ = false;
  uint64_t epoch_ = 0;
  util::BoundedLru<std::string, Trilean> lru_;
  Stats stats_;
};

}  // namespace batch
}  // namespace dd

#endif  // DD_BATCH_ANSWER_CACHE_H_
