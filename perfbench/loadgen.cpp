#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <exception>
#include <stdexcept>
#include <thread>

#include "server/payload.h"
#include "server/wire.h"

namespace perfbench {

namespace wire = sc::server::wire;

namespace {

constexpr std::uint32_t kVerifyEvery = 16;

void set_fine_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void sleep_until_ns(std::int64_t due_ns) {
  // steady_clock is CLOCK_MONOTONIC on Linux.
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(due_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(due_ns % 1'000'000'000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Run `body(i, result_i)` on one thread per connection and merge.
template <typename Body>
PhaseResult run_threads(Connections& connections, const Body& body) {
  std::vector<PhaseResult> results(connections.size());
  std::vector<std::thread> threads;
  threads.reserve(connections.size());
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < connections.size(); ++i) {
    threads.emplace_back([&, i] {
      set_fine_timer_slack();
      try {
        body(i, results[i]);
      } catch (const std::exception& e) {
        ++results[i].failed;
        if (results[i].first_error.empty()) results[i].first_error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult merged;
  merged.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  for (PhaseResult& r : results) merged.merge(std::move(r));
  return merged;
}

}  // namespace

void PhaseResult::merge(PhaseResult&& other) {
  attempted += other.attempted;
  failed += other.failed;
  payload_bytes += other.payload_bytes;
  latency_s.insert(latency_s.end(), other.latency_s.begin(),
                   other.latency_s.end());
  late_s.insert(late_s.end(), other.late_s.begin(), other.late_s.end());
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
  if (first_error.empty()) first_error = std::move(other.first_error);
}

LoadConnection::LoadConnection(std::uint16_t port,
                               const sc::workload::Catalog& catalog,
                               const sc::stats::ZipfLike& popularity,
                               const SessionShape& shape, sc::util::Rng rng)
    : catalog_(catalog),
      popularity_(popularity),
      shape_(shape),
      rng_(std::move(rng)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("connect 127.0.0.1:" + std::to_string(port) +
                             ": " + err);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in local{};
  socklen_t len = sizeof local;
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&local), &len);
  local_port_ = ntohs(local.sin_port);
  request_.reserve(wire::kGetRequestSize);
  body_.reserve(wire::kGetResponseHeader + shape_.range_bytes);
  expected_.resize(shape_.range_bytes);
}

LoadConnection::~LoadConnection() { ::close(fd_); }

void LoadConnection::start_session() {
  object_ = popularity_.sample(rng_) - 1;  // rank k is object k - 1
  const auto size =
      static_cast<std::uint64_t>(catalog_.object(object_).size_bytes);
  budget_ = std::min(shape_.session_bytes, size);
  if (rng_.uniform() < shape_.depart_probability) {
    budget_ = static_cast<std::uint64_t>(static_cast<double>(budget_) *
                                         rng_.uniform(0.05, 1.0));
  }
  budget_ = std::max<std::uint64_t>(budget_, 1);
  offset_ = 0;
}

bool LoadConnection::check_reply(std::uint64_t length, std::string& error) {
  if (body_.empty() || body_[0] != wire::kOk) {
    error = "GET answered with status " +
            std::to_string(body_.empty() ? -1 : body_[0]);
    return false;
  }
  if (body_.size() != wire::kGetResponseHeader + length) {
    error = "GET reply of " + std::to_string(body_.size()) +
            " bytes for a range of " + std::to_string(length);
    return false;
  }
  const std::uint64_t cache_bytes = wire::get_u64(body_.data() + 1);
  const std::uint64_t origin_bytes = wire::get_u64(body_.data() + 9);
  if (cache_bytes + origin_bytes != length) {
    error = "cache + origin bytes do not add up to the range";
    return false;
  }
  if (seq_ % kVerifyEvery == 0) {
    sc::server::fill_payload(object_, offset_, expected_.data(), length);
    if (std::memcmp(expected_.data(),
                    body_.data() + wire::kGetResponseHeader, length) != 0) {
      error = "payload mismatch in object " + std::to_string(object_);
      return false;
    }
  }
  return true;
}

bool LoadConnection::get(PhaseResult& out, bool trace) {
  if (offset_ >= budget_) start_session();
  const std::uint64_t length = std::min(
      {shape_.range_bytes, budget_ - offset_, wire::kMaxGetLength});
  request_.clear();
  wire::encode_get(request_, wire::GetRequest{object_, offset_, length});
  const std::int64_t start = now_ns();
  std::string error;
  bool ok = false;
  if (!wire::write_frame(fd_, request_.data(), request_.size()) ||
      !wire::read_frame(fd_, body_)) {
    broken_ = true;
    error = "transport error";
  } else {
    ok = check_reply(length, error);
  }
  if (trace) {
    out.spans.push_back(Span{local_port_, seq_, Layer::kClientRoundTrip,
                             start, now_ns(), length});
  }
  ++seq_;
  ++out.attempted;
  if (ok) {
    out.payload_bytes += length;
  } else {
    ++out.failed;
    if (out.first_error.empty()) out.first_error = error;
  }
  offset_ += length;
  return ok;
}

Connections connect_all(std::uint16_t port, std::size_t count,
                        const sc::workload::Catalog& catalog,
                        const sc::stats::ZipfLike& popularity,
                        const SessionShape& shape, std::uint64_t seed) {
  Connections connections;
  for (std::size_t i = 0; i < count; ++i) {
    connections.push_back(std::make_unique<LoadConnection>(
        port, catalog, popularity, shape,
        sc::util::Rng(seed).fork("client-" + std::to_string(i))));
  }
  return connections;
}

PhaseResult run_open_loop(Connections& connections, double rate_per_s,
                          double seconds, std::uint64_t seed, bool trace) {
  const double rate = rate_per_s / static_cast<double>(connections.size());
  const auto count = static_cast<std::size_t>(rate * seconds);
  // Threads start within a millisecond; the schedule starts after that.
  const std::int64_t origin = now_ns() + 2'000'000;
  return run_threads(connections, [&](std::size_t i, PhaseResult& out) {
    LoadConnection& connection = *connections[i];
    sc::util::Rng arrivals =
        sc::util::Rng(seed).fork("arrivals-" + std::to_string(i));
    out.latency_s.reserve(count);
    out.late_s.reserve(count);
    if (trace) out.spans.reserve(count);
    double due_s = 0.0;
    for (std::size_t n = 0; n < count; ++n) {
      due_s += arrivals.exponential(rate);
      if (connection.broken()) {
        // Scheduled but impossible to send: failed, and late forever.
        ++out.attempted;
        ++out.failed;
        continue;
      }
      const std::int64_t due = origin + static_cast<std::int64_t>(due_s * 1e9);
      sleep_until_ns(due);
      const std::int64_t sent = now_ns();
      connection.get(out, trace);
      const std::int64_t done = now_ns();
      out.latency_s.push_back(static_cast<double>(done - due) * 1e-9);
      out.late_s.push_back(
          static_cast<double>(std::max<std::int64_t>(0, sent - due)) * 1e-9);
    }
  });
}

PhaseResult run_closed_loop(Connections& connections, double seconds,
                            bool trace) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  return run_threads(connections, [&](std::size_t i, PhaseResult& out) {
    LoadConnection& connection = *connections[i];
    if (trace) out.spans.reserve(1 << 17);
    while (!connection.broken() && now_ns() < deadline) {
      connection.get(out, trace);
    }
  });
}

}  // namespace perfbench
