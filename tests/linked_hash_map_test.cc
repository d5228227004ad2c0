#include "util/linked_hash_map.h"

#include <gtest/gtest.h>

#include <string>

namespace sssj {
namespace {

TEST(LinkedHashMapTest, StartsEmpty) {
  LinkedHashMap<int, std::string> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(1), nullptr);
}

TEST(LinkedHashMapTest, InsertAndFind) {
  LinkedHashMap<int, std::string> m;
  m.insert(1, "a");
  m.insert(2, "b");
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), "a");
  EXPECT_EQ(*m.find(2), "b");
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_TRUE(m.contains(2));
  EXPECT_FALSE(m.contains(3));
}

TEST(LinkedHashMapTest, InsertExistingReplacesInPlace) {
  LinkedHashMap<int, std::string> m;
  m.insert(1, "a");
  m.insert(2, "b");
  m.insert(1, "a2");  // must keep order position
  EXPECT_EQ(*m.find(1), "a2");
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.front().first, 1);
}

TEST(LinkedHashMapTest, TryEmplaceReportsInsertionAndKeepsOrder) {
  LinkedHashMap<int, std::string> m;
  auto [a, a_new] = m.try_emplace(1);
  ASSERT_TRUE(a_new);
  EXPECT_TRUE(a->empty());  // default-constructed
  *a = "a";
  m.insert(2, "b");
  auto [again, again_new] = m.try_emplace(1);
  EXPECT_FALSE(again_new);
  EXPECT_EQ(*again, "a");  // the stored value, not a fresh one
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.front().first, 1);  // order position kept
  m.pop_front();
  EXPECT_EQ(m.front().first, 2);
  EXPECT_EQ(m.find(1), nullptr);
}

TEST(LinkedHashMapTest, IterationFollowsInsertionOrder) {
  LinkedHashMap<int, int> m;
  for (int i = 9; i >= 0; --i) m.insert(i, i * i);
  int expected = 9;
  for (const auto& [k, v] : m) {
    EXPECT_EQ(k, expected);
    EXPECT_EQ(v, expected * expected);
    --expected;
  }
}

TEST(LinkedHashMapTest, PopFrontRemovesOldest) {
  LinkedHashMap<int, int> m;
  m.insert(5, 50);
  m.insert(6, 60);
  m.insert(7, 70);
  EXPECT_EQ(m.front().first, 5);
  m.pop_front();
  EXPECT_EQ(m.front().first, 6);
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(LinkedHashMapTest, EraseMiddle) {
  LinkedHashMap<int, int> m;
  m.insert(1, 1);
  m.insert(2, 2);
  m.insert(3, 3);
  EXPECT_TRUE(m.erase(2));
  EXPECT_FALSE(m.erase(2));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.front().first, 1);
  m.pop_front();
  EXPECT_EQ(m.front().first, 3);
}

TEST(LinkedHashMapTest, ValueMutationThroughFind) {
  LinkedHashMap<int, int> m;
  m.insert(1, 10);
  *m.find(1) += 5;
  EXPECT_EQ(*m.find(1), 15);
}

TEST(LinkedHashMapTest, ClearResets) {
  LinkedHashMap<int, int> m;
  m.insert(1, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  m.insert(2, 2);
  EXPECT_EQ(m.front().first, 2);
}

TEST(LinkedHashMapTest, CopyPreservesOrderAndLookup) {
  LinkedHashMap<int, int> m;
  for (int i = 0; i < 50; ++i) m.insert(i, i + 100);
  LinkedHashMap<int, int> copy = m;
  m.clear();  // copy must be independent
  EXPECT_EQ(copy.size(), 50u);
  EXPECT_EQ(copy.front().first, 0);
  ASSERT_NE(copy.find(49), nullptr);
  EXPECT_EQ(*copy.find(49), 149);
}

TEST(LinkedHashMapTest, ManyPopsExpireInOrder) {
  LinkedHashMap<int, double> m;
  for (int i = 0; i < 1000; ++i) m.insert(i, i * 0.5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(m.front().first, i);
    m.pop_front();
  }
  EXPECT_TRUE(m.empty());
}

}  // namespace
}  // namespace sssj
