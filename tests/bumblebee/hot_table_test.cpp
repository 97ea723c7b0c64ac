#include "bumblebee/hot_table.h"

#include <gtest/gtest.h>

namespace bb::bumblebee {
namespace {

TEST(HotTable, DramTouchInsertsAndCounts) {
  HotTables tables(1, 8, 8, 4095);
  HotTable hot = tables[0];
  EXPECT_EQ(hot.touch_dram(5), 1u);
  EXPECT_EQ(hot.touch_dram(5), 2u);
  EXPECT_EQ(hot.hotness(5), 2u);
  EXPECT_EQ(hot.hotness(6), 0u);
}

TEST(HotTable, DramQueueDropsLru) {
  HotTables tables(1, 8, 3, 4095);
  HotTable hot = tables[0];
  hot.touch_dram(1);
  hot.touch_dram(2);
  hot.touch_dram(3);
  hot.touch_dram(4);  // drops page 1
  EXPECT_EQ(hot.hotness(1), 0u);
  EXPECT_EQ(hot.hotness(2), 1u);
  EXPECT_EQ(hot.dram_size(), 3u);
}

TEST(HotTable, DramTouchRefreshesLruPosition) {
  HotTables tables(1, 8, 3, 4095);
  HotTable hot = tables[0];
  hot.touch_dram(1);
  hot.touch_dram(2);
  hot.touch_dram(3);
  hot.touch_dram(1);  // page 1 now MRU
  hot.touch_dram(4);  // drops page 2, not page 1
  EXPECT_GT(hot.hotness(1), 0u);
  EXPECT_EQ(hot.hotness(2), 0u);
}

TEST(HotTable, CounterCarriedFromDramToHbm) {
  HotTables tables(1, 8, 8, 4095);
  HotTable hot = tables[0];
  hot.touch_dram(7);
  hot.touch_dram(7);
  hot.move_dram_to_hbm(7);
  EXPECT_EQ(hot.hbm_size(), 1u);
  EXPECT_EQ(hot.dram_size(), 0u);
  EXPECT_EQ(hot.hotness(7), 2u);
  EXPECT_EQ(hot.touch_hbm(7), 3u);
}

TEST(HotTable, EvictionPushesBackToDramQueue) {
  HotTables tables(1, 8, 8, 4095);
  HotTable hot = tables[0];
  hot.touch_dram(9);
  hot.move_dram_to_hbm(9);
  hot.touch_hbm(9);
  hot.move_hbm_to_dram(9);
  EXPECT_EQ(hot.hbm_size(), 0u);
  EXPECT_EQ(hot.dram_size(), 1u);
  EXPECT_EQ(hot.hotness(9), 2u);  // counter kept across the move
}

TEST(HotTable, MinHbmCounterIsT) {
  HotTables tables(1, 8, 8, 4095);
  HotTable hot = tables[0];
  EXPECT_EQ(hot.min_hbm_counter(), 0u);  // empty queue
  for (u32 p : {1, 2, 3}) {
    hot.touch_dram(p);
    hot.move_dram_to_hbm(p);
  }
  hot.touch_hbm(2);
  hot.touch_hbm(2);
  hot.touch_hbm(3);
  // counters: 1 -> 1, 2 -> 3, 3 -> 2.
  EXPECT_EQ(hot.min_hbm_counter(), 1u);
}

TEST(HotTable, LruHbmIsOldestUntouched) {
  HotTables tables(1, 8, 8, 4095);
  HotTable hot = tables[0];
  for (u32 p : {1, 2, 3}) {
    hot.touch_dram(p);
    hot.move_dram_to_hbm(p);
  }
  hot.touch_hbm(1);  // 1 moves to MRU
  const auto lru = hot.lru_hbm();
  ASSERT_TRUE(lru.has_value());
  EXPECT_EQ(lru->page, 2u);
}

TEST(HotTable, ColdestPicksMinCounter) {
  HotTables tables(1, 8, 8, 4095);
  HotTable hot = tables[0];
  for (u32 p : {1, 2, 3}) {
    hot.touch_dram(p);
    hot.move_dram_to_hbm(p);
  }
  hot.touch_hbm(1);
  hot.touch_hbm(1);
  hot.touch_hbm(3);
  // counters: 1 -> 3, 2 -> 1, 3 -> 2.
  const auto coldest = hot.coldest_hbm();
  ASSERT_TRUE(coldest.has_value());
  EXPECT_EQ(coldest->page, 2u);
  // Excluding page 2 yields the next coldest (page 3).
  const auto second = hot.coldest_hbm(2);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->page, 3u);
}

TEST(HotTable, ColdestOnEmpty) {
  HotTables tables(1, 4, 4, 100);
  HotTable hot = tables[0];
  EXPECT_FALSE(hot.coldest_hbm().has_value());
  EXPECT_FALSE(hot.lru_hbm().has_value());
}

TEST(HotTable, RequeueMruKeepsCounter) {
  HotTables tables(1, 8, 8, 4095);
  HotTable hot = tables[0];
  for (u32 p : {1, 2}) {
    hot.touch_dram(p);
    hot.move_dram_to_hbm(p);
  }
  // 1 is LRU; requeue it to MRU without a counter bump.
  hot.requeue_hbm_mru(1);
  EXPECT_EQ(hot.lru_hbm()->page, 2u);
  EXPECT_EQ(hot.hotness(1), 1u);
}

TEST(HotTable, RemoveForgetsEverywhere) {
  HotTables tables(1, 8, 8, 4095);
  HotTable hot = tables[0];
  hot.touch_dram(4);
  hot.move_dram_to_hbm(4);
  hot.touch_dram(5);
  hot.remove(4);
  hot.remove(5);
  EXPECT_EQ(hot.hotness(4), 0u);
  EXPECT_EQ(hot.hotness(5), 0u);
  EXPECT_EQ(hot.hbm_size(), 0u);
  EXPECT_EQ(hot.dram_size(), 0u);
}

TEST(HotTable, CounterSaturates) {
  HotTables tables(1, 8, 8, 3);
  HotTable hot = tables[0];
  hot.touch_dram(1);
  hot.touch_dram(1);
  hot.touch_dram(1);
  hot.touch_dram(1);
  hot.touch_dram(1);
  EXPECT_EQ(hot.hotness(1), 3u);
}

TEST(HotTable, MoveDramToHbmWithoutHistoryStartsAtZero) {
  HotTables tables(1, 8, 8, 4095);
  HotTable hot = tables[0];
  hot.move_dram_to_hbm(42);
  EXPECT_EQ(hot.hbm_size(), 1u);
  EXPECT_EQ(hot.hotness(42), 0u);
}

}  // namespace
}  // namespace bb::bumblebee
