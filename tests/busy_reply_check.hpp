// The connection host's busy rule, checked through a front end
// (core::Server, core::FabricCoordinator) that was started with exactly
// one connection slot. Shared by the serve and fabric suites, so both
// front ends run the same check.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "support/json_reader.hpp"
#include "support/socket.hpp"

/// Runs `daemon` (already started, one slot) on a thread, then: a holder
/// takes the only slot, a second connection gets a busy line then EOF, and
/// once the holder leaves a retrying client is served again. `probe` is a
/// request the front end answers with "ok":true. Stops and joins `daemon`
/// before returning.
template <class Daemon>
void expect_full_slot_table_replies_busy(Daemon& daemon,
                                         avglocal::support::Endpoint endpoint,
                                         const std::string& probe) {
  namespace support = avglocal::support;
  // Stops and joins the daemon on every exit, failed assertions included.
  struct Running {
    Daemon& daemon;
    std::thread thread;
    ~Running() {
      daemon.request_stop();
      thread.join();
    }
  } running{daemon, std::thread([&daemon] { daemon.run(); })};

  // The first client pins the only slot; the probe round-trip guarantees
  // its handler is live before anyone else knocks.
  support::Stream holder = support::Stream::connect(endpoint);
  std::string line;
  ASSERT_TRUE(holder.write_line(probe));
  ASSERT_TRUE(holder.read_line(line));

  // The second connection must get an explicit busy error, then EOF - a
  // reply to back off on, not a silent drop.
  {
    support::Stream rejected = support::Stream::connect(endpoint);
    ASSERT_TRUE(rejected.read_line(line));
    const support::JsonValue reply = support::parse_json(line);
    EXPECT_FALSE(reply.at("ok").as_bool());
    EXPECT_EQ(reply.at("error").as_string(), "busy");
    EXPECT_FALSE(rejected.read_line(line));  // closed right after the reply
  }

  // Once the holder leaves its slot is reaped on the next accept, so a
  // retrying client eventually gets a real handler again. Busy replies in
  // between are expected - that is the whole point of the reply - and a
  // write the host refused by closing after its busy line is one more.
  holder.close();
  for (;;) {
    support::Stream retry = support::Stream::connect(endpoint);
    if (!retry.write_line(probe)) continue;
    ASSERT_TRUE(retry.read_line(line));
    const support::JsonValue reply = support::parse_json(line);
    if (reply.at("ok").as_bool()) break;  // a freed slot served the probe
    EXPECT_EQ(reply.at("error").as_string(), "busy");
  }
}
