#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace chameleon::obs {
namespace {

TraceEvent census_event(std::uint64_t epoch) {
  TraceEvent e;
  e.epoch = epoch;
  e.type = TraceType::kStateCensus;
  e.from = "EC";
  e.a = 10;
  e.b = 4096;
  return e;
}

TEST(TraceSinkTest, DisabledSinkRecordsNothing) {
  TraceSink sink(8);
  ASSERT_FALSE(sink.enabled());
  EXPECT_FALSE(sink.accepts(TraceType::kStateCensus));
  sink.record(census_event(1));
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.recorded(), 0u);
}

TEST(TraceSinkTest, RingStorageIsAllocatedOnlyForAcceptedEvents) {
  TraceSink sink;  // the process-wide default capacity
  sink.record(census_event(1));  // disabled: rejected
  EXPECT_EQ(sink.allocated(), 0u);
  sink.set_enabled(true);
  sink.set_type_filter({TraceType::kGcCycle});
  sink.record(census_event(2));  // filtered out
  EXPECT_EQ(sink.allocated(), 0u);
  sink.clear_type_filter();
  sink.record(census_event(3));
  EXPECT_EQ(sink.allocated(), sink.capacity());
  EXPECT_EQ(sink.snapshot().size(), 1u);

  sink.set_capacity(5);  // frees the ring until the next record
  EXPECT_EQ(sink.allocated(), 0u);
  EXPECT_TRUE(sink.snapshot().empty());
  for (std::uint64_t i = 0; i < 12; ++i) sink.record(census_event(i));
  EXPECT_EQ(sink.allocated(), 5u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.front().epoch, 7u);
  EXPECT_EQ(events.back().epoch, 11u);
}

TEST(TraceSinkTest, WraparoundKeepsNewestAndCountsDropped) {
  TraceSink sink(4);
  sink.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i) sink.record(census_event(i));
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and seq numbers run 6..9 (the first six were evicted).
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6u + i);
    EXPECT_EQ(events[i].epoch, 6u + i);
  }
}

TEST(TraceSinkTest, TypeFilterRejectsOtherTypes) {
  TraceSink sink(8);
  sink.set_enabled(true);
  sink.set_type_filter({TraceType::kStateCensus, TraceType::kWearSnapshot});
  EXPECT_TRUE(sink.accepts(TraceType::kStateCensus));
  EXPECT_TRUE(sink.accepts(TraceType::kWearSnapshot));
  EXPECT_FALSE(sink.accepts(TraceType::kMessageSend));
  EXPECT_FALSE(sink.accepts(TraceType::kGcCycle));

  TraceEvent send;
  send.type = TraceType::kMessageSend;
  sink.record(send);          // filtered out, not even counted
  sink.record(census_event(1));
  EXPECT_EQ(sink.recorded(), 1u);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.snapshot()[0].type, TraceType::kStateCensus);

  sink.clear_type_filter();
  EXPECT_TRUE(sink.accepts(TraceType::kMessageSend));
}

TEST(TraceSinkTest, SetCapacityClearsTheRing) {
  TraceSink sink(4);
  sink.set_enabled(true);
  sink.record(census_event(1));
  sink.set_capacity(16);
  EXPECT_EQ(sink.capacity(), 16u);
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSinkTest, ClearEmptiesBufferedEvents) {
  TraceSink sink(4);
  sink.set_enabled(true);
  sink.record(census_event(1));
  sink.record(census_event(2));
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(sink.snapshot().empty());
}

TEST(TraceEventTest, ToJsonOmitsUnsetFields) {
  TraceEvent e;
  e.seq = 3;
  e.epoch = 7;
  e.type = TraceType::kStateCensus;
  e.from = "EC";
  e.a = 10;
  e.b = 4096;
  const std::string json = e.to_json();
  EXPECT_NE(json.find("\"seq\":3"), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":7"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"state_census\""), std::string::npos);
  EXPECT_NE(json.find("\"from\":\"EC\""), std::string::npos);
  EXPECT_NE(json.find("\"a\":10"), std::string::npos);
  EXPECT_NE(json.find("\"b\":4096"), std::string::npos);
  // Fields left at their defaults never appear.
  EXPECT_EQ(json.find("\"oid\""), std::string::npos);
  EXPECT_EQ(json.find("\"server\""), std::string::npos);
  EXPECT_EQ(json.find("\"peer\""), std::string::npos);
  EXPECT_EQ(json.find("\"to\""), std::string::npos);
  EXPECT_EQ(json.find("\"value\""), std::string::npos);
}

TEST(TraceEventTest, ToJsonIncludesValuesWhenSet) {
  TraceEvent e;
  e.type = TraceType::kWearSnapshot;
  e.a = 100;
  e.value = 12.5;
  e.has_value = true;
  e.value2 = 2.25;
  e.has_value2 = true;
  const std::string json = e.to_json();
  EXPECT_NE(json.find("\"type\":\"wear_snapshot\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"value2\":2.25"), std::string::npos);
}

TEST(TraceSinkTest, WriteJsonlEmitsOneLinePerEvent) {
  TraceSink sink(8);
  sink.set_enabled(true);
  for (std::uint64_t i = 0; i < 3; ++i) sink.record(census_event(i));
  std::ostringstream out;
  sink.write_jsonl(out);
  const std::string text = out.str();
  std::size_t lines = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 3u);
}

}  // namespace
}  // namespace chameleon::obs
