#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "minimal/pqz.h"
#include "oracle/projection_store.h"
#include "util/bounded_lru.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace dd {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(Status, AllConstructorsSetDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Doubler(Result<int> in) {
  DD_ASSIGN_OR_RETURN(int v, std::move(in));
  return 2 * v;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Status::Internal("boom")).status().code(),
            StatusCode::kInternal);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool low = false, high = false;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    low |= (v == -3);
    high |= (v == 3);
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, SampleDistinctProducesDistinctValues) {
  Rng rng(13);
  for (int iter = 0; iter < 50; ++iter) {
    auto s = rng.SampleDistinct(20, 7);
    std::set<int> set(s.begin(), s.end());
    EXPECT_EQ(set.size(), 7u);
    for (int v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
  EXPECT_TRUE(rng.SampleDistinct(5, 0).empty());
  EXPECT_EQ(rng.SampleDistinct(5, 5).size(), 5u);
}

TEST(StringUtil, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtil, JoinAndStartsWith) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile int64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.ElapsedMicros(), 0);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  t.Restart();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

using Lru = util::BoundedLru<std::string, int>;

// Keys in most-recently-used-first order.
std::vector<std::string> Keys(const Lru& lru) {
  std::vector<std::string> out;
  lru.ForEach([&](const std::string& k, int) { out.push_back(k); });
  return out;
}

TEST(BoundedLru, EvictsLeastRecentlyUsedAtCapacity) {
  Lru lru(2);
  lru.Put("a", 1);
  lru.Put("b", 2);
  ASSERT_NE(lru.Get("a"), nullptr);  // a is now the most recent
  const auto put = lru.Put("c", 3);
  EXPECT_TRUE(put.inserted);
  EXPECT_EQ(put.evicted, 1);
  EXPECT_EQ(lru.size(), 2);
  EXPECT_EQ(lru.Peek("b"), nullptr);
  EXPECT_EQ(Keys(lru), (std::vector<std::string>{"c", "a"}));
}

TEST(BoundedLru, PeekDoesNotRefresh) {
  Lru lru(2);
  lru.Put("a", 1);
  lru.Put("b", 2);
  const int* a = lru.Peek("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, 1);
  lru.Put("c", 3);
  EXPECT_EQ(lru.Peek("a"), nullptr) << "peek must not save an entry";
  EXPECT_NE(lru.Peek("b"), nullptr);
}

TEST(BoundedLru, PutOnExistingKeyOverwritesAndRefreshes) {
  Lru lru(2);
  lru.Put("a", 1);
  lru.Put("b", 2);
  const auto put = lru.Put("a", 10);
  EXPECT_FALSE(put.inserted);
  EXPECT_EQ(put.evicted, 0);
  ASSERT_NE(put.value, nullptr);
  EXPECT_EQ(*put.value, 10);
  EXPECT_EQ(lru.size(), 2);
  EXPECT_EQ(Keys(lru), (std::vector<std::string>{"a", "b"}));
  lru.Put("c", 3);  // evicts b, the least recent after the refresh
  EXPECT_EQ(Keys(lru), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(*lru.Peek("a"), 10);
}

TEST(BoundedLru, NonPositiveCapacityIsUnbounded) {
  for (int64_t cap : {0, -1}) {
    Lru lru(cap);
    for (int i = 0; i < 1000; ++i) {
      EXPECT_EQ(lru.Put(std::to_string(i), i).evicted, 0);
    }
    EXPECT_EQ(lru.size(), 1000);
    EXPECT_EQ(lru.capacity(), cap);
  }
}

TEST(BoundedLru, CountsEvictions) {
  Lru lru(3);
  int64_t evicted = 0;
  for (int i = 0; i < 10; ++i) evicted += lru.Put(std::to_string(i), i).evicted;
  EXPECT_EQ(evicted, 7);
  EXPECT_EQ(Keys(lru), (std::vector<std::string>{"9", "8", "7"}));
  // A capacity shrink applies at the next Put, which evicts down to it.
  lru.SetCapacity(1);
  EXPECT_EQ(lru.size(), 3);
  EXPECT_EQ(lru.Put("x", 0).evicted, 3);
  EXPECT_EQ(Keys(lru), (std::vector<std::string>{"x"}));
  lru.Clear();
  EXPECT_EQ(lru.size(), 0);
}

TEST(BoundedLru, ForEachIsMostRecentlyUsedFirst) {
  Lru lru;
  lru.Put("a", 1);
  lru.Put("b", 2);
  lru.Put("c", 3);
  EXPECT_EQ(Keys(lru), (std::vector<std::string>{"c", "b", "a"}));
  lru.Get("a");
  EXPECT_EQ(Keys(lru), (std::vector<std::string>{"a", "c", "b"}));
  lru.Peek("b");
  EXPECT_EQ(Keys(lru), (std::vector<std::string>{"a", "c", "b"}));
}

// One partition per atom: P = {v}, Z = everything else.
Partition SingletonP(int n, Var v) {
  Partition pqz;
  pqz.p = Interpretation(n);
  pqz.q = Interpretation(n);
  pqz.z = Interpretation(n);
  for (Var w = 0; w < n; ++w) (w == v ? pqz.p : pqz.z).Insert(w);
  return pqz;
}

// ProjectionStore on the shared LRU: FindStream never saves a stream from
// eviction, and a GetStream pointer stays valid until the next GetStream.
TEST(ProjectionStoreLru, FindStreamDoesNotRefreshAndPointersAreStable) {
  const int n = 4;
  oracle::ProjectionStore store;
  store.SetCapacity(2);
  oracle::ProjectionStream* a = store.GetStream(SingletonP(n, 0));
  a->exhausted = true;
  oracle::ProjectionStream* b = store.GetStream(SingletonP(n, 1));
  b->projections->push_back(Interpretation(n));
  // Distinct partitions never share a stream; a repeat returns the same one.
  EXPECT_NE(a, b);
  EXPECT_EQ(store.GetStream(SingletonP(n, 1)), b);
  EXPECT_EQ(b->projections->size(), 1u);
  // a is the least recent; probing it must not change that.
  EXPECT_EQ(store.FindStream(SingletonP(n, 0)), a);
  EXPECT_TRUE(a->exhausted);
  oracle::ProjectionStream* c = store.GetStream(SingletonP(n, 2));
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.FindStream(SingletonP(n, 0)), nullptr);
  EXPECT_EQ(store.FindStream(SingletonP(n, 1)), b);
  EXPECT_EQ(store.FindStream(SingletonP(n, 2)), c);
  // An evicted partition comes back as a fresh stream.
  oracle::ProjectionStream* again = store.GetStream(SingletonP(n, 0));
  EXPECT_FALSE(again->exhausted);
  EXPECT_TRUE(again->projections->empty());
  EXPECT_EQ(store.evictions(), 2);
}

}  // namespace
}  // namespace dd
