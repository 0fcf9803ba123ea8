#include "harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_set>

namespace perfbench {

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->current_;
  span.op = tracer_->op_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->current_ = index_;
  // Stamp the start last, so the bookkeeping above is outside the span.
  tracer_->spans_[index_].start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - tracer_->origin_)
          .count();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[index_];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - tracer_->origin_)
                    .count();
  tracer_->current_ = span.parent;
}

std::map<std::string, double> Tracer::SelfMillis() const {
  std::vector<int64_t> self_ns(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self_ns[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self_ns[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self_ns[i]) * 1e-6;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out << ",";
    out << "\n{\"name\":" << JsonString(span.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << JsonNumber(static_cast<double>(span.start_ns) * 1e-3)
        << ",\"dur\":"
        << JsonNumber(static_cast<double>(span.end_ns - span.start_ns) *
                      1e-3)
        << ",\"args\":{\"op\":" << span.op << ",\"span\":" << i
        << ",\"parent\":" << span.parent << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  out.flush();
  return static_cast<bool>(out);
}

namespace {

// Child → parent wire format: defect length, defect bytes, result count,
// result values. Written in one go after the reference is computed.
void WriteExpected(int fd, const Expected& expected) {
  std::string buffer;
  auto put = [&](const void* data, size_t size) {
    buffer.append(static_cast<const char*>(data), size);
  };
  const uint64_t defect_size = expected.defect.size();
  put(&defect_size, sizeof(defect_size));
  put(expected.defect.data(), expected.defect.size());
  const uint64_t count = expected.result.size();
  put(&count, sizeof(count));
  put(expected.result.data(), count * sizeof(int64_t));
  size_t written = 0;
  while (written < buffer.size()) {
    const ssize_t n =
        write(fd, buffer.data() + written, buffer.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    written += static_cast<size_t>(n);
  }
}

bool ReadAll(int fd, std::string* out) {
  char chunk[4096];
  while (true) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) return true;
    out->append(chunk, static_cast<size_t>(n));
  }
}

bool ParseExpected(const std::string& bytes, Expected* expected) {
  size_t pos = 0;
  auto take = [&](void* data, size_t size) {
    if (bytes.size() - pos < size) return false;
    std::memcpy(data, bytes.data() + pos, size);
    pos += size;
    return true;
  };
  uint64_t defect_size = 0;
  if (!take(&defect_size, sizeof(defect_size)) ||
      defect_size > bytes.size() - pos) {
    return false;
  }
  expected->defect.assign(bytes.data() + pos, defect_size);
  pos += defect_size;
  uint64_t count = 0;
  if (!take(&count, sizeof(count)) ||
      count > (bytes.size() - pos) / sizeof(int64_t)) {
    return false;
  }
  expected->result.resize(count);
  return take(expected->result.data(), count * sizeof(int64_t)) &&
         pos == bytes.size();
}

struct Child {
  pid_t pid = -1;
  int fd = -1;
  size_t input = 0;
};

// Reads a finished child's payload and reaps it.
chase::Status Collect(const Child& child, std::vector<Expected>* out) {
  std::string bytes;
  const bool read_ok = ReadAll(child.fd, &bytes);
  close(child.fd);
  int status = 0;
  while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !ParseExpected(bytes, &(*out)[child.input])) {
    return chase::InternalError("reference process for input " +
                                std::to_string(child.input) + " failed");
  }
  return chase::OkStatus();
}

}  // namespace

chase::StatusOr<std::vector<Expected>> ComputeReferences(
    const Workload& workload, unsigned parallel) {
  std::vector<Expected> out(workload.NumInputs());
  std::vector<Child> running;
  chase::Status status = chase::OkStatus();
  for (size_t i = 0; i < workload.NumInputs(); ++i) {
    if (running.size() >= std::max(1u, parallel)) {
      const chase::Status collected = Collect(running.front(), &out);
      if (status.ok()) status = collected;
      running.erase(running.begin());
    }
    int fds[2];
    if (pipe(fds) != 0) {
      status = chase::InternalError("pipe failed");
      break;
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      status = chase::InternalError("fork failed");
      break;
    }
    if (pid == 0) {
      close(fds[0]);
      WriteExpected(fds[1], workload.Reference(i));
      close(fds[1]);
      _exit(0);
    }
    close(fds[1]);
    running.push_back({pid, fds[0], i});
  }
  for (const Child& child : running) {
    const chase::Status collected = Collect(child, &out);
    if (status.ok()) status = collected;
  }
  if (!status.ok()) return status;
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

SpeedProbe::SpeedProbe() : table_(size_t{1} << 19), graph_(180) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t& slot : table_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    slot = x;
  }
  for (size_t i = 0; i < 300; ++i) {
    graph_[table_[i] % graph_.size()].push_back(
        static_cast<uint32_t>((table_[i] >> 32) % graph_.size()));
  }
  for (size_t i = 0; i < 1'300; ++i) {
    const uint64_t a = table_[10'000 + i], b = table_[20'000 + i];
    left_.push_back({static_cast<uint32_t>(a % 300),
                     static_cast<uint32_t>((a >> 32) % 300)});
    right_.push_back({static_cast<uint32_t>(b % 300),
                      static_cast<uint32_t>((b >> 32) % 300)});
  }
}

double SpeedProbe::RunMs() {
  const Clock::time_point start = Clock::now();
  const uint64_t mask = table_.size() - 1;
  uint64_t x = sink_ | 1;
  for (int i = 0; i < 5'000; ++i) x = table_[(x ^ (x >> 29)) & mask] + i;
  std::unordered_set<uint64_t> set;
  std::vector<uint64_t> keys(3'000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = table_[(x + i * 7919) & mask];
    set.insert(keys[i]);
  }
  for (const uint64_t key : keys) x += set.count(key ^ (x & 1));
  std::sort(keys.begin(), keys.end());
  x += keys[keys.size() / 2];

  std::unordered_set<uint64_t> closure;
  Pairs delta, next;
  const auto add = [&](uint32_t from, uint32_t to, Pairs* out) {
    if (closure.insert(uint64_t{from} << 32 | to).second) {
      out->push_back({from, to});
    }
  };
  for (uint32_t from = 0; from < graph_.size(); ++from) {
    for (const uint32_t to : graph_[from]) add(from, to, &delta);
  }
  while (!delta.empty()) {
    next.clear();
    for (const auto& [from, via] : delta) {
      for (const uint32_t to : graph_[via]) add(from, to, &next);
    }
    delta.swap(next);
  }
  x += closure.size();

  Pairs joined;
  for (const auto& [a, b] : left_) {
    for (const auto& [c, d] : right_) {
      if (b == c) joined.push_back({a, d});
    }
  }
  std::sort(joined.begin(), joined.end());
  sink_ = x + static_cast<uint64_t>(
                  std::unique(joined.begin(), joined.end()) - joined.begin());
  return MillisSince(start);
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  // VmHWM follows ResetPeakRss(); ru_maxrss does not.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in KiB
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench
