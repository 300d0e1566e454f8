// The open-loop RESP load generator: an in-process net::Server over the
// engine and one generator thread that sends on a seeded Poisson schedule at
// kRate over two connections, whatever the server's progress. Latency runs from each
// request's scheduled send time, so a stall also charges the requests that
// queued behind it; how late the generator itself ran is recorded too.
//
// kRate is about a fifth of the server's capacity with requests always
// queued (84000-107000 req/s on a 4-vCPU VM), so the server keeps up even
// when the host's other guests take a share of the VM's CPU: at 30000
// req/s, runs that lost 70 % of their CPU to steal doubled or quadrupled
// their p50. Between requests the vCPUs would halt, and the host's wake-up
// delay would enter every latency; perfbench_run keeps them awake (see
// main.cc).
//
// Each connection owns the keys its writes target, and one connection's
// requests execute in order, so a key's writes apply in version order and
// the read checks stay exact.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <deque>

#include "core/sharded_db.h"
#include "harness.h"
#include "net/resp.h"
#include "net/server.h"
#include "trace.h"
#include "tracing_db.h"

namespace perfbench {

namespace {

constexpr int kConnections = 2;
constexpr int kServerWorkers = 2;
constexpr double kRate = 20000;  // offered requests per second
constexpr uint64_t kDrainNanos = 2'000'000'000;

using pmblade::net::RespValue;

// MSET batches must span both shards of the two-shard engine.
bool SpansShards(const Op& op) {
  const uint32_t first =
      pmblade::ShardedDB::ShardOfKey(KeyAt(op.keys[0]), 2);
  for (int i = 1; i < op.num_keys; ++i) {
    if (pmblade::ShardedDB::ShardOfKey(KeyAt(op.keys[i]), 2) != first) {
      return true;
    }
  }
  return false;
}

struct Pending {
  Op op;
  uint32_t version[kBatchKeys] = {};  // writes: issued; reads: acked floor
  uint64_t scheduled_ns = 0;
};

class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  // Sends what the socket takes now; false on a broken connection.
  bool Flush() {
    while (offset_ < out_.size()) {
      const ssize_t n = send(fd_, out_.data() + offset_, out_.size() - offset_,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        offset_ += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    if (offset_ == out_.size()) {
      out_.clear();
      offset_ = 0;
    }
    return true;
  }

  // Reads what is available into the parser; false on a broken connection.
  bool Receive() {
    char buf[64 << 10];
    for (;;) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        parser_.Feed(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buf)) return true;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
  }

  int fd() const { return fd_; }
  bool has_output() const { return offset_ < out_.size(); }
  std::string* out() { return &out_; }
  pmblade::net::RespParser* parser() { return &parser_; }
  std::deque<Pending>* pending() { return &pending_; }

 private:
  int fd_ = -1;
  std::string out_;
  size_t offset_ = 0;
  pmblade::net::RespParser parser_;
  std::deque<Pending> pending_;
};

class Generator {
 public:
  Generator(const WorkloadSpec& spec, const RunConfig& config,
            VersionTable* versions, ClientTally* tally)
      : versions_(versions), tally_(tally) {
    for (int c = 0; c < kConnections; ++c) {
      streams_.push_back(std::make_unique<OpStream>(
          config.seed, static_cast<uint32_t>(c), spec.mix, spec.dist,
          static_cast<uint32_t>(c), kConnections));
      streams_.back()->set_batch_filter(&SpansShards);
    }
  }

  // Encodes connection c's next request.
  void Issue(Connection* conns, int c, uint64_t scheduled) {
    Pending p;
    p.op = streams_[c]->Next();
    p.scheduled_ns = scheduled;
    std::vector<std::string> cmd;
    const Op& op = p.op;
    switch (op.kind) {
      case OpKind::kGet:
      case OpKind::kGetAbsent:
        p.version[0] = versions_->acked(op.keys[0]);
        cmd = {"GET", op.kind == OpKind::kGet ? KeyAt(op.keys[0])
                                              : AbsentKeyAt(op.keys[0])};
        break;
      case OpKind::kPut:
        p.version[0] = versions_->Issue(op.keys[0]);
        cmd = {"SET", KeyAt(op.keys[0]),
               EncodeValue(op.keys[0], static_cast<uint32_t>(c),
                           p.version[0])};
        break;
      case OpKind::kMultiGet:
        cmd = {"MGET"};
        for (int i = 0; i < op.num_keys; ++i) {
          p.version[i] = versions_->acked(op.keys[i]);
          cmd.push_back(KeyAt(op.keys[i]));
        }
        break;
      case OpKind::kMultiPut:
        cmd = {"MSET"};
        for (int i = 0; i < op.num_keys; ++i) {
          p.version[i] = versions_->Issue(op.keys[i]);
          cmd.push_back(KeyAt(op.keys[i]));
          cmd.push_back(EncodeValue(op.keys[i], static_cast<uint32_t>(c),
                                    p.version[i]));
        }
        break;
      case OpKind::kScan:
        // Floors are read per key at check time; the reply carries keys
        // only, so the check is on order and bounds.
        cmd = {"SCAN", KeyAt(op.keys[0]), "COUNT",
               std::to_string(kScanLength)};
        break;
    }
    pmblade::net::EncodeBulkStringArray(cmd, conns[c].out());
    conns[c].pending()->push_back(p);
    ++tally_->attempted;
  }

  void NoteSent(uint64_t scheduled, uint64_t now) {
    tally_->late.Add(now - scheduled);
  }

  // Checks one reply against its request and records its latency.
  void Complete(const Pending& p, const RespValue& reply, uint64_t now) {
    const uint64_t latency = now - p.scheduled_ns;
    if (Tracer::Get().enabled()) {
      Tracer::Get().RecordSpan(SpanName::kRespRequest, p.scheduled_ns, now);
    }
    const Op& op = p.op;
    if (reply.IsError()) {
      tally_->Fail(std::string(OpKindName(op.kind)) + ": " + reply.str);
      return;
    }
    const char* why = nullptr;
    switch (op.kind) {
      case OpKind::kGet:
        tally_->Record(Lat::kGet, now, latency);
        if (reply.type != RespValue::Type::kBulkString) {
          tally_->Fail("GET " + KeyAt(op.keys[0]) + ": not a bulk string");
        } else if (!CheckRead(reply.str, op.keys[0], p.version[0], *versions_,
                              &why)) {
          tally_->Fail("GET " + KeyAt(op.keys[0]) + ": " + why);
        }
        break;
      case OpKind::kGetAbsent:
        tally_->Record(Lat::kGet, now, latency);
        if (!reply.IsNull()) tally_->Fail("absent key found");
        break;
      case OpKind::kPut:
        tally_->Record(Lat::kPut, now, latency);
        ++tally_->puts;
        if (reply.type != RespValue::Type::kSimpleString || reply.str != "OK") {
          tally_->Fail("SET " + KeyAt(op.keys[0]) + ": unexpected reply");
        } else {
          versions_->Ack(op.keys[0], p.version[0]);
          tally_->user_bytes += kKeyBytes + kValueBytes;
        }
        break;
      case OpKind::kMultiGet:
        tally_->Record(Lat::kBatch, now, latency);
        if (reply.type != RespValue::Type::kArray ||
            reply.array.size() != static_cast<size_t>(op.num_keys)) {
          tally_->Fail("MGET: malformed reply");
          return;
        }
        for (int i = 0; i < op.num_keys; ++i) {
          if (reply.array[i].type != RespValue::Type::kBulkString ||
              !CheckRead(reply.array[i].str, op.keys[i], p.version[i],
                         *versions_, &why)) {
            tally_->Fail("MGET " + KeyAt(op.keys[i]) + ": " +
                         (why != nullptr ? why : "missing"));
            return;
          }
        }
        break;
      case OpKind::kMultiPut:
        tally_->Record(Lat::kBatch, now, latency);
        ++tally_->batches;
        if (reply.type != RespValue::Type::kSimpleString || reply.str != "OK") {
          tally_->Fail("MSET: unexpected reply");
          return;
        }
        for (int i = 0; i < op.num_keys; ++i) {
          versions_->Ack(op.keys[i], p.version[i]);
        }
        tally_->user_bytes +=
            static_cast<uint64_t>(op.num_keys) * (kKeyBytes + kValueBytes);
        break;
      case OpKind::kScan: {
        tally_->Record(Lat::kScan, now, latency);
        ++tally_->scans;
        if (reply.type != RespValue::Type::kArray || reply.array.size() != 2 ||
            reply.array[1].type != RespValue::Type::kArray) {
          tally_->Fail("SCAN: malformed reply");
          return;
        }
        const std::vector<RespValue>& keys = reply.array[1].array;
        const uint64_t start = op.keys[0];
        const uint64_t expect =
            std::min<uint64_t>(kScanLength, versions_->size() - start);
        tally_->scan_entries += keys.size();
        if (keys.size() != expect) {
          tally_->Fail("SCAN from " + KeyAt(start) + " returned " +
                       std::to_string(keys.size()) + " keys");
          return;
        }
        for (size_t i = 0; i < keys.size(); ++i) {
          uint64_t index = 0;
          if (!ParseKey(keys[i].str, &index) || index != start + i) {
            tally_->Fail("SCAN from " + KeyAt(start) +
                         ": out of order or out of bounds key");
            return;
          }
        }
        break;
      }
    }
  }

 private:
  VersionTable* versions_;
  ClientTally* tally_;
  std::vector<std::unique_ptr<OpStream>> streams_;
};

}  // namespace

PhaseResult RunOpenLoop(const WorkloadSpec& spec, const RunConfig& config,
                        Engine* engine, VersionTable* versions,
                        WindowSampler* sampler) {
  PhaseResult result;
  result.tallies.resize(1);
  ClientTally* tally = &result.tallies[0];

  std::unique_ptr<TracingDB> traced;
  pmblade::DB* served = engine->db();
  if (config.trace) {
    traced = std::make_unique<TracingDB>(engine->db());
    served = traced.get();
  }
  pmblade::net::ServerOptions sopts;
  sopts.port = 0;
  sopts.num_workers = kServerWorkers;
  sopts.flush_on_drain = false;
  pmblade::net::Server server(sopts, served);
  pmblade::Status s = server.Start();
  if (!s.ok()) {
    tally->Fail("server start: " + s.ToString());
    return result;
  }
  Connection conns[kConnections];
  for (Connection& c : conns) {
    if (!c.Connect(server.port())) {
      tally->Fail("connect failed");
      server.Stop();
      return result;
    }
  }

  SetClientThread();
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // precise ppoll wake-ups
  Generator gen(spec, config, versions, tally);
  const uint64_t cpu0 = ThreadCpuNanos();
  const uint64_t start = NowNanos();
  const uint64_t deadline =
      start + static_cast<uint64_t>(config.seconds * 1e9);
  tally->StartWindows(start, config.seconds);
  sampler->Start(start, tally->windows.size());
  pmblade::Random sched(config.seed * 0x2545f4914f6cdd1dull + 17);
  auto next_gap = [&] {
    const double u = (sched.Next64() >> 11) * (1.0 / 9007199254740992.0);
    return static_cast<uint64_t>(-std::log(1.0 - u) / kRate * 1e9);
  };
  uint64_t next = start + next_gap();
  bool broken = false;
  for (;;) {
    const uint64_t now = NowNanos();
    while (next <= now && next < deadline) {
      gen.Issue(conns, static_cast<int>(sched.Uniform(kConnections)), next);
      gen.NoteSent(next, now);
      next += next_gap();
    }
    size_t outstanding = 0;
    pollfd fds[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      if (!conns[c].Flush()) broken = true;
      outstanding += conns[c].pending()->size();
      fds[c].fd = conns[c].fd();
      fds[c].events = static_cast<short>(
          POLLIN | (conns[c].has_output() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    if (broken) break;
    if (now >= deadline && (outstanding == 0 || now >= deadline + kDrainNanos)) {
      break;
    }
    const uint64_t wake =
        now < deadline ? std::min(next, deadline) : deadline + kDrainNanos;
    const uint64_t wait = wake - now;
    timespec ts{static_cast<time_t>(wait / 1000000000ull),
                static_cast<long>(wait % 1000000000ull)};
    const int ready = ppoll(fds, kConnections, &ts, nullptr);
    if (ready <= 0) continue;
    for (int c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      if (!conns[c].Receive()) broken = true;
      const uint64_t arrived = NowNanos();
      RespValue reply;
      for (;;) {
        const auto r = conns[c].parser()->Next(&reply);
        if (r == pmblade::net::RespParser::Result::kNeedMore) break;
        if (r == pmblade::net::RespParser::Result::kError ||
            conns[c].pending()->empty()) {
          tally->Fail("unparseable or unexpected reply");
          broken = true;
          break;
        }
        gen.Complete(conns[c].pending()->front(), reply, arrived);
        conns[c].pending()->pop_front();
      }
    }
    if (broken) break;
  }
  tally->thread_cpu_ns = ThreadCpuNanos() - cpu0;
  for (Connection& c : conns) {
    for (size_t i = 0; i < c.pending()->size(); ++i) {
      tally->Fail("request not completed by the end of the run");
    }
  }
  result.wall_s = config.seconds;
  server.Stop();
  return result;
}

}  // namespace perfbench
