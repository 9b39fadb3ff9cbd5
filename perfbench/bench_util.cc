#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "bench.h"

namespace fuzzydb {
namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---- statements -----------------------------------------------------

std::string InsertTable(const std::string& sql) {
  // "INSERT INTO <table> VALUES ..."
  const size_t start = sql.find_first_not_of(' ', 12);
  return sql.substr(start, sql.find(' ', start) - start);
}

std::vector<Tuple> SplitTail(Relation* relation, size_t keep) {
  std::vector<Tuple>& tuples = relation->mutable_tuples();
  std::vector<Tuple> tail;
  if (tuples.size() > keep) {
    tail.assign(std::make_move_iterator(tuples.begin() + keep),
                std::make_move_iterator(tuples.end()));
    tuples.resize(keep);
  }
  return tail;
}

Stmt Select(std::string shape, std::string sql, size_t conn) {
  return Stmt{Kind::kSelect, std::move(shape), std::move(sql), conn};
}

Stmt Insert(std::string sql, size_t conn) {
  return Stmt{Kind::kInsert, "INSERT", std::move(sql), conn};
}

std::string NumberLiteral(double x) {
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, x);
    if (std::strtod(buf, nullptr) == x) break;
  }
  return buf;
}

std::string ValueLiteral(const Value& value) {
  if (value.is_string()) return "'" + value.AsString() + "'";
  const Trapezoid& t = value.AsFuzzy();
  if (t.a() == t.b() && t.b() == t.c() && t.c() == t.d()) {
    return NumberLiteral(t.a());
  }
  return "TRAP(" + NumberLiteral(t.a()) + ", " + NumberLiteral(t.b()) +
         ", " + NumberLiteral(t.c()) + ", " + NumberLiteral(t.d()) + ")";
}

std::string InsertStatement(const std::string& table, const Tuple& tuple) {
  std::string sql = "INSERT INTO " + table + " VALUES (";
  for (size_t i = 0; i < tuple.NumValues(); ++i) {
    if (i > 0) sql += ", ";
    sql += ValueLiteral(tuple.ValueAt(i));
  }
  return sql + ") DEGREE " + NumberLiteral(tuple.degree()) + ";";
}

std::string CreateStatement(const Relation& relation) {
  std::string sql = "CREATE TABLE " + relation.name() + " (";
  const auto& columns = relation.schema().columns();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += columns[i].name;
    sql += columns[i].type == ValueType::kString ? " STRING" : " FUZZY";
  }
  return sql + ");";
}

// ---- timing ---------------------------------------------------------

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  // The epsilon keeps q * n from rounding up past an exact integer
  // (0.9 * 100 is 90.00000000000001 in binary floating point).
  const double rank =
      std::ceil(q * static_cast<double>(values->size()) - 1e-9);
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return (*values)[std::min(index, values->size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- digests --------------------------------------------------------

uint64_t Fnv(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// Exact encodings of a degree / value: IEEE-754 bits, not decimal text.
std::string ExactDouble(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::string ExactValue(const Value& value) {
  if (value.is_null()) return "n";
  if (value.is_string()) return "s" + value.AsString();
  const Trapezoid& t = value.AsFuzzy();
  return "f" + ExactDouble(t.a()) + ExactDouble(t.b()) + ExactDouble(t.c()) +
         ExactDouble(t.d());
}

std::string ExactTuple(const Tuple& tuple) {
  std::string key;
  for (const Value& value : tuple.values()) {
    key += ExactValue(value);
    key += '|';
  }
  key += '@';
  key += ExactDouble(tuple.degree());
  return key;
}

}  // namespace

uint64_t AnswerDigest(const Relation& answer) {
  std::vector<std::string> rows;
  rows.reserve(answer.NumTuples());
  for (const Tuple& tuple : answer.tuples()) rows.push_back(ExactTuple(tuple));
  std::sort(rows.begin(), rows.end());
  uint64_t h = Fnv(answer.schema().ToString());
  for (const std::string& row : rows) h = Fnv(row + "\n", h);
  return h;
}

uint64_t CatalogDigest(const Catalog& catalog) {
  std::vector<std::string> names = catalog.RelationNames();
  std::sort(names.begin(), names.end());
  uint64_t h = Fnv("catalog");
  for (const std::string& name : names) {
    auto relation = catalog.GetRelationRef(name);
    if (!relation.ok()) continue;
    h = Fnv(name + (*relation)->schema().ToString(), h);
    for (const Tuple& tuple : (*relation)->tuples()) {
      h = Fnv(ExactTuple(tuple) + "\n", h);
    }
  }
  return h;
}

uint64_t FrameDigest(const server::ReplyFrame& frame) {
  uint64_t h = Fnv(frame.status + "|" + frame.error + "|" + frame.text);
  h = Fnv(frame.has_answer ? "A" : "-", h);
  for (const std::string& column : frame.columns) h = Fnv(column + ",", h);
  for (size_t i = 0; i < frame.rows.size(); ++i) {
    for (const std::string& value : frame.rows[i]) h = Fnv(value + ",", h);
    h = Fnv("@" + ExactDouble(frame.degrees[i]) + ";", h);
  }
  return h;
}

// ---- TCP line client ------------------------------------------------

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
         0;
}

bool Client::Roundtrip(const std::string& line, server::ReplyFrame* frame,
                       size_t* raw_bytes) {
  const std::string data = line + "\n";
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + written,
                             data.size() - written, MSG_NOSIGNAL);
    if (n <= 0) return false;
    written += static_cast<size_t>(n);
  }
  size_t scanned = 0;
  while (true) {
    const size_t newline = buffer_.find('\n', scanned);
    if (newline != std::string::npos) {
      const std::string reply = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (raw_bytes != nullptr) *raw_bytes = reply.size() + 1;
      *frame = server::ReplyFrame{};
      return server::ParseReplyFrame(reply, frame);
    }
    scanned = buffer_.size();
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

// ---- results --------------------------------------------------------

namespace {

/// "select_p90_ms 3.2000 ms (n=412, 41 beyond)": a percentile with its
/// sample basis.
std::string Described(const std::string& name, double value,
                      const std::vector<double>& samples, double q) {
  const size_t n = samples.size();
  const size_t beyond = n - static_cast<size_t>(std::max(
                                1.0, std::ceil(q * static_cast<double>(n) -
                                               1e-9)));
  char line[120];
  std::snprintf(line, sizeof(line), "%s %.4f ms (n=%zu, %zu beyond)",
                name.c_str(), value, n, beyond);
  return line;
}

}  // namespace

void AddLoopMetrics(const LoopLog& log, double setup_s, double peak_rss_mb,
                    Outcome* out) {
  std::vector<double> selects, inserts;
  for (const Sample& s : log.samples) {
    (s.select ? selects : inserts).push_back(s.latency_ms);
  }
  if (selects.size() < kMinSamples || inserts.size() < kMinSamples) {
    out->Fail("fewer than " + std::to_string(kMinSamples) +
              " SELECTs or INSERTs in the timed loop");
    return;
  }
  const double stmts = static_cast<double>(selects.size() + inserts.size());
  out->Add("setup_s", setup_s, "s");
  out->Add("stmt_per_s", stmts * 1e3 / log.wall_ms, "1/s");
  out->Add("cpu_ms_per_stmt", log.cpu_ms / stmts, "ms");
  out->Add("peak_rss_mb", peak_rss_mb, "MB");
  std::vector<std::string> described;
  for (auto [kind, samples] : {std::pair{"select", &selects},
                               std::pair{"insert", &inserts}}) {
    for (auto [label, q] : {std::pair{"p50", 0.5}, std::pair{"p90", 0.9}}) {
      const std::string name = std::string(kind) + "_" + label + "_ms";
      const double value = Quantile(samples, q);
      if (!std::isfinite(value)) {
        out->Fail(name + " is infinite: failed statements reach it");
      }
      out->Add(name, value, "ms");
      described.push_back(Described(name, value, *samples, q));
    }
  }
  const double failed_frac =
      out->attempted == 0 ? 0.0
                          : static_cast<double>(out->failed) /
                                static_cast<double>(out->attempted);
  char line[240];
  std::snprintf(line, sizeof(line),
                "attempted %llu, failed %llu (of which shed %llu), "
                "failed_frac %.6f",
                static_cast<unsigned long long>(out->attempted),
                static_cast<unsigned long long>(out->failed),
                static_cast<unsigned long long>(out->shed), failed_frac);
  out->Note(line);
  std::snprintf(line, sizeof(line),
                "timed loop %.3f s: %zu SELECT, %zu INSERT",
                log.wall_ms / 1e3, selects.size(), inserts.size());
  out->Note(line);
  for (const std::string& d : described) out->Note(d);
}

// ---- span tracer ----------------------------------------------------

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(
      Span{name, NowNs(), 0, tracer_->open_, tracer_->stmt_});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<size_t>(index_)];
  span.end_ns = NowNs();
  tracer_->open_ = span.parent;
}

double Tracer::Scope::ElapsedUs() const {
  if (tracer_ == nullptr) return 0.0;
  return static_cast<double>(
             NowNs() - tracer_->spans_[static_cast<size_t>(index_)].start_ns) /
         1e3;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double us =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3;
    Totals& t = totals[spans_[i].name];
    t.total_us += us;
    t.self_us += us - child_us[i];
    ++t.calls;
  }
  return totals;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%d,\"stmt\":%u}\n",
                 i, s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - origin) / 1e3, s.parent,
                 s.stmt);
  }
  return std::fclose(file) == 0;
}

// ---- misc -----------------------------------------------------------

void RemoveTree(const std::string& path) {
  DIR* dir = opendir(path.c_str());
  if (dir != nullptr) {
    while (dirent* entry = readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = path + "/" + name;
      struct stat st{};
      if (lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(child);
      } else {
        unlink(child.c_str());
      }
    }
    closedir(dir);
  }
  rmdir(path.c_str());
}

uint64_t TreeBytes(const std::string& path) {
  struct stat st{};
  if (lstat(path.c_str(), &st) != 0) return 0;
  if (!S_ISDIR(st.st_mode)) {
    return S_ISREG(st.st_mode) ? static_cast<uint64_t>(st.st_size) : 0;
  }
  uint64_t total = 0;
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) return 0;
  while (dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    total += TreeBytes(path + "/" + name);
  }
  closedir(dir);
  return total;
}

bool MakeDirs(const std::string& path) {
  for (size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos == path.size() || path[pos] == '/') {
      const std::string prefix = path.substr(0, pos);
      if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
  }
  return true;
}

}  // namespace perfbench
}  // namespace fuzzydb
