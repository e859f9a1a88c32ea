#include "batch/answer_cache.h"

#include "util/string_util.h"

namespace dd {
namespace batch {

std::string AnswerCache::MakeKey(uint64_t fingerprint, SemanticsKind kind,
                                 const std::string& canonical_query,
                                 bool brave) {
  return StrFormat("%016llx|%s%s|",
                   static_cast<unsigned long long>(fingerprint),
                   SemanticsKindName(kind), brave ? "~brave" : "") +
         canonical_query;
}

bool AnswerCache::IsBraveKey(const std::string& key) {
  // The mode tag lives in the kind segment (between the first and second
  // '|'); the query segment after it may contain arbitrary bytes and is
  // never inspected.
  const size_t first = key.find('|');
  if (first == std::string::npos) return false;
  const size_t second = key.find('|', first + 1);
  if (second == std::string::npos) return false;
  return key.find('~', first + 1) < second;
}

void AnswerCache::SetEpoch(uint64_t fingerprint) {
  if (epoch_set_ && epoch_ == fingerprint) return;
  if (epoch_set_ && lru_.size() != 0) ++stats_.invalidations;
  lru_.Clear();
  epoch_ = fingerprint;
  epoch_set_ = true;
}

std::optional<Trilean> AnswerCache::Lookup(const std::string& key) {
  const Trilean* hit = lru_.Get(key);
  if (hit == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return *hit;
}

void AnswerCache::Insert(const std::string& key, Trilean answer) {
  if (answer == Trilean::kUnknown) {
    // "Unknown is never cached": exhaustion is a property of the budget,
    // not of the query.
    ++stats_.unknown_rejected;
    return;
  }
  const auto put = lru_.Put(key, answer);
  if (put.inserted) ++stats_.insertions;
  stats_.evictions += put.evicted;
}

void AnswerCache::Clear() { lru_.Clear(); }

void AnswerCache::ForEach(
    const std::function<void(const std::string&, Trilean)>& fn) const {
  lru_.ForEach(fn);
}

}  // namespace batch
}  // namespace dd
