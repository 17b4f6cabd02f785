// The connection host's contract (support/connection_host.hpp) driven
// through a toy line handler over a real Unix-domain socket: dense session
// numbers and one close-hook call per connection, the reply's
// keep-open/close/stop/hang-up outcomes, the half-closing teardown of
// request_stop() against stop_accepting()'s natural one - plus the Stream
// line framing every front end reads through. The busy rule is checked
// through both front ends (tests/busy_reply_check.hpp).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/connection_host.hpp"
#include "support/socket.hpp"

namespace {

using namespace avglocal;
using Reply = support::ConnectionHost::Reply;

/// A scratch Unix-domain endpoint; the directory goes when the test ends
/// (the host unlinks the socket file itself).
class ScratchEndpoint {
 public:
  ScratchEndpoint() {
    if (::mkdtemp(dir_) != nullptr) endpoint_.path = std::string(dir_) + "/host.sock";
  }
  ~ScratchEndpoint() { ::rmdir(dir_); }
  const support::Endpoint& get() const { return endpoint_; }

 private:
  char dir_[32] = "/tmp/avglocal-host-XXXXXX";
  support::Endpoint endpoint_;
};

/// Echoes each line, except the words that pick a non-default reply.
Reply toy_handler(std::uint64_t session, const std::string& line) {
  if (line == "session") return Reply{std::to_string(session)};
  if (line == "close") return Reply{"bye", Reply::After::kClose};
  if (line == "hang-up") return Reply{"", Reply::After::kClose};
  if (line == "stop") return Reply{"stopping", Reply::After::kStop};
  return Reply{line};
}

std::string round_trip(support::Stream& stream, const std::string& request) {
  std::string line;
  if (!stream.write_line(request) || !stream.read_line(line)) return "<eof>";
  return line;
}

TEST(ConnectionHost, SessionsAreDenseAndEachCloseRunsTheHookOnce) {
  const ScratchEndpoint endpoint;
  std::mutex mutex;
  std::vector<std::uint64_t> closed;
  support::ConnectionHost host(4, toy_handler, [&](std::uint64_t session) {
    const std::lock_guard<std::mutex> lock(mutex);
    closed.push_back(session);
  });
  host.start(endpoint.get());
  std::thread runner([&host] { host.run(); });

  for (std::uint64_t expected = 0; expected < 3; ++expected) {
    support::Stream stream = support::Stream::connect(endpoint.get());
    EXPECT_EQ(round_trip(stream, "session"), std::to_string(expected));
  }
  support::Stream last = support::Stream::connect(endpoint.get());
  EXPECT_EQ(round_trip(last, "stop"), "stopping");  // the kStop reply still flushes
  runner.join();

  std::sort(closed.begin(), closed.end());
  EXPECT_EQ(closed, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(ConnectionHost, TheReplyDecidesWhetherTheConnectionGoesOn) {
  const ScratchEndpoint endpoint;
  support::ConnectionHost host(4, toy_handler);
  host.start(endpoint.get());
  std::thread runner([&host] { host.run(); });

  support::Stream kept = support::Stream::connect(endpoint.get());
  EXPECT_EQ(round_trip(kept, "a"), "a");
  EXPECT_EQ(round_trip(kept, "b"), "b");
  EXPECT_EQ(round_trip(kept, "close"), "bye");
  EXPECT_EQ(round_trip(kept, "c"), "<eof>");

  // An empty reply line sends nothing: the client sees EOF straight away.
  support::Stream hung_up = support::Stream::connect(endpoint.get());
  EXPECT_EQ(round_trip(hung_up, "hang-up"), "<eof>");

  host.request_stop();
  runner.join();
}

TEST(ConnectionHost, RequestStopHalfClosesALiveConnection) {
  const ScratchEndpoint endpoint;
  support::ConnectionHost host(4, toy_handler);
  host.start(endpoint.get());
  std::thread runner([&host] { host.run(); });

  // The round trip makes the handler live; it then blocks reading. The
  // stop alone must release it - the client never hangs up.
  support::Stream idle = support::Stream::connect(endpoint.get());
  EXPECT_EQ(round_trip(idle, "a"), "a");
  host.request_stop();
  runner.join();
  std::string line;
  EXPECT_FALSE(idle.read_line(line));
}

TEST(ConnectionHost, StopAcceptingLetsLiveConnectionsEndNaturally) {
  const ScratchEndpoint endpoint;
  support::ConnectionHost host(4, toy_handler);
  host.start(endpoint.get());
  std::atomic<bool> returned{false};
  std::thread runner([&] {
    host.run();
    returned.store(true);
  });

  support::Stream live = support::Stream::connect(endpoint.get());
  EXPECT_EQ(round_trip(live, "a"), "a");
  host.stop_accepting();
  // No half-close: the live connection keeps being served, and run()
  // waits for it.
  EXPECT_EQ(round_trip(live, "b"), "b");
  EXPECT_FALSE(returned.load());
  live.close();
  runner.join();
  EXPECT_TRUE(returned.load());
}

// ---------------------------------------------------------------- Stream ----

TEST(Stream, LongAndPipelinedLinesSplitExactly) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  support::Stream writer(fds[0]);
  support::Stream reader(fds[1]);

  // A 1 MiB line and two short ones in one write: the long line spans
  // hundreds of reads, and the short ones arrive in the same chunk as its
  // tail.
  std::string long_line(std::size_t{1} << 20, 'x');
  for (std::size_t i = 0; i < long_line.size(); i += 997) long_line[i] = 'y';
  std::thread bulk([&] { ASSERT_TRUE(writer.write_all(long_line + "\nfirst\nsecond\n")); });
  std::string line;
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, long_line);
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "first");
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "second");
  bulk.join();

  // One byte per write: every read returns a fragment of the line.
  const std::string trickled = "{\"op\":\"ping\"}";
  std::thread trickle([&] {
    for (const char c : trickled + "\n") ASSERT_TRUE(writer.write_all(std::string(1, c)));
    writer.close();
  });
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, trickled);
  EXPECT_FALSE(reader.read_line(line));  // EOF after the writer closed
  trickle.join();
}

}  // namespace
