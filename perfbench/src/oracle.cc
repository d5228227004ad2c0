#include "oracle.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/brute_force.h"

namespace perfbench {

namespace {

constexpr char kMagic[8] = {'P', 'B', 'O', 'R', 'A', 'C', 'L', '1'};

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

template <typename T>
void Put(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool Get(std::istream& is, T* v) {
  return static_cast<bool>(is.read(reinterpret_cast<char*>(v), sizeof(*v)));
}

bool WriteOracle(const std::vector<sssj::ResultPair>& pairs,
                 uint64_t fingerprint, const std::string& path) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(kMagic, sizeof(kMagic));
    Put<uint64_t>(os, fingerprint);
    Put<uint64_t>(os, pairs.size());
    for (const sssj::ResultPair& p : pairs) {
      Put<uint64_t>(os, p.a);
      Put<uint64_t>(os, p.b);
      Put<double>(os, p.ta);
      Put<double>(os, p.tb);
      Put<double>(os, p.dot);
      Put<double>(os, p.sim);
    }
    if (!os.flush()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::string Describe(const char* what, const sssj::ResultPair& p) {
  std::ostringstream os;
  os.precision(17);
  os << what << " (" << p.a << "," << p.b << ") ta=" << p.ta
     << " tb=" << p.tb << " dot=" << p.dot << " sim=" << p.sim;
  return os.str();
}

bool Close(double x, double y, double rel_tol) {
  return std::fabs(x - y) <= rel_tol * std::max(std::fabs(x), std::fabs(y));
}

// Walks two id-sorted lists in step; `same` judges pairs with equal ids.
template <typename Same>
std::string Diff(const std::vector<sssj::ResultPair>& got,
                 const std::vector<sssj::ResultPair>& want, Same same) {
  size_t i = 0;
  size_t j = 0;
  while (i < got.size() || j < want.size()) {
    if (j == want.size() || (i < got.size() && got[i] < want[j])) {
      return Describe("extra pair", got[i]);
    }
    if (i == got.size() || want[j] < got[i]) {
      return Describe("missing pair", want[j]);
    }
    if (!same(got[i], want[j])) {
      return Describe("got", got[i]) + " but want " +
             Describe("", want[j]);
    }
    ++i;
    ++j;
  }
  return "";
}

}  // namespace

uint64_t StreamFingerprint(const sssj::Stream& stream,
                           const sssj::DecayParams& params) {
  Fnv h;
  h.Add(Bits(params.theta));
  h.Add(Bits(params.lambda));
  h.Add(stream.size());
  for (const sssj::StreamItem& item : stream) {
    h.Add(item.id);
    h.Add(Bits(item.ts));
    h.Add(item.vec.nnz());
    for (const sssj::Coord& c : item.vec) {
      h.Add(c.dim);
      h.Add(Bits(c.value));
    }
  }
  return h.value();
}

std::string LoadOracle(const std::string& cache_path, uint64_t fingerprint,
                       std::vector<sssj::ResultPair>* pairs) {
  std::ifstream is(cache_path, std::ios::binary);
  if (!is) return "cannot open " + cache_path;
  char magic[sizeof(kMagic)] = {};
  uint64_t stored = 0;
  uint64_t count = 0;
  if (!is.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      !Get(is, &stored) || !Get(is, &count)) {
    return cache_path + " is not an oracle file";
  }
  if (stored != fingerprint) return cache_path + " belongs to another stream";
  pairs->clear();
  pairs->reserve(count);
  for (uint64_t k = 0; k < count; ++k) {
    sssj::ResultPair p;
    if (!Get(is, &p.a) || !Get(is, &p.b) || !Get(is, &p.ta) ||
        !Get(is, &p.tb) || !Get(is, &p.dot) || !Get(is, &p.sim)) {
      return cache_path + " is truncated";
    }
    pairs->push_back(p);
  }
  return "";
}

std::string EnsureOracle(const sssj::Stream& stream,
                         const sssj::DecayParams& params,
                         const std::string& cache_path) {
  const uint64_t fingerprint = StreamFingerprint(stream, params);
  {
    std::ifstream is(cache_path, std::ios::binary);
    char magic[sizeof(kMagic)] = {};
    uint64_t stored = 0;
    if (is.read(magic, sizeof(magic)) &&
        std::memcmp(magic, kMagic, sizeof(kMagic)) == 0 && Get(is, &stored) &&
        stored == fingerprint) {
      return "";
    }
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return std::string("fork: ") + std::strerror(errno);
  if (pid == 0) {
    const std::vector<sssj::ResultPair> pairs =
        sssj::BruteForceStreamJoinSorted(stream, params);
    ::_exit(WriteOracle(pairs, fingerprint, cache_path) ? 0 : 1);
  }
  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return "oracle computation failed for " + cache_path;
  }
  return "";
}

void SortByIds(std::vector<sssj::ResultPair>* pairs) {
  std::sort(pairs->begin(), pairs->end());
}

std::string CompareToOracle(const std::vector<sssj::ResultPair>& got,
                            const std::vector<sssj::ResultPair>& oracle,
                            double rel_tol) {
  return Diff(got, oracle,
              [rel_tol](const sssj::ResultPair& x, const sssj::ResultPair& y) {
                return x.ta == y.ta && x.tb == y.tb &&
                       Close(x.dot, y.dot, rel_tol) &&
                       Close(x.sim, y.sim, rel_tol);
              });
}

std::string CompareBitwise(const std::vector<sssj::ResultPair>& got,
                           const std::vector<sssj::ResultPair>& want) {
  return Diff(got, want,
              [](const sssj::ResultPair& x, const sssj::ResultPair& y) {
                return Bits(x.ta) == Bits(y.ta) && Bits(x.tb) == Bits(y.tb) &&
                       Bits(x.dot) == Bits(y.dot) &&
                       Bits(x.sim) == Bits(y.sim);
              });
}

}  // namespace perfbench
