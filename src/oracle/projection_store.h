// Memoized minimal-projection streams: blocking-clause reuse across
// successive enumeration calls.
//
// EnumerateMinimalProjections is the workhorse inside the Σ₂ᵖ oracle of
// the paper's counting algorithm (Section 3.1): the binary search calls it
// O(log n) times over the SAME database and partition, and each call would
// otherwise enumerate from scratch. A ProjectionStream instead records
// the projections in their discovery order together with the session
// context holding their region-blocking clauses; later calls replay the
// memoized prefix with zero SAT calls and, only if the consumer wants
// more, resume the persistent context exactly where the last call stopped.
//
// The stream order is well-defined because enumeration is deterministic:
// the k-th projection is a function of the database, the partition, and
// the k-1 blocks already asserted — independent of which oracle call
// happened to discover it.
//
// Capacity: SetCapacity bounds the number of live streams (each one pins
// its projections plus a kept session context for the life of the store —
// unbounded growth is a leak under long-lived batch servers that sweep
// many partitions). Eviction is LRU by GetStream access (util/bounded_lru.h);
// FindStream never refreshes a stream's position. Dropping a stream
// is sound: its kept context stays inert in the session (guarded clauses
// constrain nothing without their activation assumption), and a later
// GetStream simply re-enumerates from scratch — deterministically the same
// stream. Evictions are counted (dd.oracle.cache_evictions).
#ifndef DD_ORACLE_PROJECTION_STORE_H_
#define DD_ORACLE_PROJECTION_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "logic/interpretation.h"
#include "minimal/pqz.h"
#include "oracle/sat_session.h"
#include "util/bounded_lru.h"

namespace dd {
namespace oracle {

/// One partition's memoized enumeration state.
struct ProjectionStream {
  /// Minimal projections in discovery order (each is a full model; its
  /// (P,Q)-projection is the canonical datum). Held behind a shared
  /// handle so an EXHAUSTED stream's storage can be aliased outward
  /// (Semantics::SharedModels → the batch layer's model banks) without a
  /// copy: once exhausted the vector is never mutated again, and eviction
  /// only drops this stream's reference while outstanding handles keep
  /// the models alive. Never null.
  std::shared_ptr<std::vector<Interpretation>> projections =
      std::make_shared<std::vector<Interpretation>>();
  /// True once the region blocks cover the whole model space.
  bool exhausted = false;
  /// Persistent context guarding the region-blocking clauses; kept alive
  /// for the life of the stream so resumption is incremental.
  std::unique_ptr<SatSession::Context> ctx;
};

/// Per-engine registry of streams, one per partition. Partitions are
/// bucketed by hash but compared by full bitset equality, so two distinct
/// partitions never share a stream.
class ProjectionStore {
 public:
  /// Finds or creates the stream for `pqz`. The returned pointer is valid
  /// until the next GetStream call (which may evict) or Clear.
  ProjectionStream* GetStream(const Partition& pqz);

  /// Finds the stream for `pqz` without creating one (and without
  /// touching LRU order): nullptr when absent. Read-only probes — e.g.
  /// handing out an exhausted stream's shared projections — must not
  /// trigger eviction of an unrelated live stream.
  ProjectionStream* FindStream(const Partition& pqz) {
    return streams_.Peek(pqz);
  }

  /// Bounds the number of live streams; <= 0 means unbounded.
  void SetCapacity(int64_t cap) { streams_.SetCapacity(cap); }
  int64_t capacity() const { return streams_.capacity(); }
  int64_t size() const { return streams_.size(); }
  int64_t evictions() const { return evictions_; }

  void Clear() { streams_.Clear(); }

 private:
  struct PartitionHash {
    size_t operator()(const Partition& pqz) const;
  };
  struct PartitionEq {
    bool operator()(const Partition& a, const Partition& b) const {
      return a.p == b.p && a.q == b.q && a.z == b.z;
    }
  };

  util::BoundedLru<Partition, ProjectionStream, PartitionHash, PartitionEq>
      streams_;
  int64_t evictions_ = 0;
};

}  // namespace oracle
}  // namespace dd

#endif  // DD_ORACLE_PROJECTION_STORE_H_
