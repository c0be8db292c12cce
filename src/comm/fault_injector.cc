#include "comm/fault_injector.h"

#include <sstream>
#include <utility>

namespace rmcrt::comm {

namespace {

/// Stable per-link seed mix (splitmix64 finalizer over seed^src^dst).
std::uint64_t mixSeed(std::uint64_t seed, int src, int dst) {
  std::uint64_t z = seed;
  z ^= 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(src) + 1);
  z ^= 0xbf58476d1ce4e5b9ull * (static_cast<std::uint64_t>(dst) + 2);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr int kMatchAny = -1;  // kAnySource / kAnyTag

}  // namespace

FaultInjector::FaultInjector(std::uint64_t seed) : m_seed(seed) {}

FaultInjector::~FaultInjector() {
  cancelPendingAndWait();
  {
    std::lock_guard<std::mutex> lk(m_timerMutex);
    m_timerStop = true;
  }
  m_timerCv.notify_all();
  if (m_timerThread.joinable()) m_timerThread.join();
}

void FaultInjector::setDefaultProbabilities(const FaultProbabilities& p) {
  std::lock_guard<std::mutex> lk(m_mutex);
  m_default = p;
}

void FaultInjector::script(const ScriptedFault& f) {
  std::lock_guard<std::mutex> lk(m_mutex);
  m_scripts.push_back(ScriptState{f, 0});
}

void FaultInjector::killRank(int rank) {
  std::lock_guard<std::mutex> lk(m_mutex);
  m_killed.insert(rank);
}

bool FaultInjector::isKilled(int rank) const {
  std::lock_guard<std::mutex> lk(m_mutex);
  return m_killed.count(rank) > 0;
}

std::vector<int> FaultInjector::killedRanks() const {
  std::lock_guard<std::mutex> lk(m_mutex);
  return std::vector<int>(m_killed.begin(), m_killed.end());
}

FaultInjector::Plan FaultInjector::plan(int src, int dst, std::int64_t tag) {
  m_examined.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(m_mutex);

  // A dead rank neither sends nor receives: silence on every touching
  // link. Checked before scripts so a kill overrides any other fate.
  if (m_killed.count(src) > 0 || m_killed.count(dst) > 0) {
    m_dropped.fetch_add(1, std::memory_order_relaxed);
    return Plan{FaultAction::Drop, 0.0};
  }

  // Scripted faults take precedence over the probabilistic draw.
  for (ScriptState& s : m_scripts) {
    const ScriptedFault& f = s.fault;
    if ((f.src == kMatchAny || f.src == src) &&
        (f.dst == kMatchAny || f.dst == dst) &&
        (f.tag == kMatchAny || f.tag == tag)) {
      ++s.matches;
      if (s.matches == f.nth || (f.permanent && s.matches > f.nth)) {
        Plan p{f.action, 0.0};
        switch (f.action) {
          case FaultAction::Drop:
            m_dropped.fetch_add(1, std::memory_order_relaxed);
            return p;
          case FaultAction::Duplicate:
            m_duplicated.fetch_add(1, std::memory_order_relaxed);
            return p;
          case FaultAction::Reorder:
            m_reordered.fetch_add(1, std::memory_order_relaxed);
            return p;
          case FaultAction::Delay:
            p.delayMs = 0.5 * (m_default.delayMinMs + m_default.delayMaxMs);
            m_delayed.fetch_add(1, std::memory_order_relaxed);
            return p;
          case FaultAction::Deliver:
            return p;
        }
      }
    }
  }

  const FaultProbabilities& probs = m_default;
  if (probs.drop <= 0 && probs.delay <= 0 && probs.duplicate <= 0 &&
      probs.reorder <= 0) {
    return Plan{};
  }

  LinkState& link = m_links[{src, dst}];
  if (!link.seeded) {
    link.rng.seed(mixSeed(m_seed, src, dst));
    link.seeded = true;
  }
  ++link.count;
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const double u = uni(link.rng);
  double edge = probs.drop;
  if (u < edge) {
    m_dropped.fetch_add(1, std::memory_order_relaxed);
    return Plan{FaultAction::Drop, 0.0};
  }
  edge += probs.delay;
  if (u < edge) {
    std::uniform_real_distribution<double> d(probs.delayMinMs,
                                             probs.delayMaxMs);
    m_delayed.fetch_add(1, std::memory_order_relaxed);
    return Plan{FaultAction::Delay, d(link.rng)};
  }
  edge += probs.duplicate;
  if (u < edge) {
    m_duplicated.fetch_add(1, std::memory_order_relaxed);
    return Plan{FaultAction::Duplicate, 0.0};
  }
  edge += probs.reorder;
  if (u < edge) {
    m_reordered.fetch_add(1, std::memory_order_relaxed);
    return Plan{FaultAction::Reorder, 0.0};
  }
  return Plan{};
}

void FaultInjector::ensureTimerThreadLocked() {
  if (!m_timerThread.joinable())
    m_timerThread = std::thread([this] { timerLoop(); });
}

void FaultInjector::deferMs(double delayMs, std::function<void()> fn) {
  const auto due =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(delayMs * 1000.0));
  {
    std::lock_guard<std::mutex> lk(m_timerMutex);
    m_deferred.push(Deferred{due, m_deferredOrder++, std::move(fn)});
    ensureTimerThreadLocked();
  }
  m_timerCv.notify_all();
}

void FaultInjector::cancelPendingAndWait() {
  std::unique_lock<std::mutex> lk(m_timerMutex);
  while (!m_deferred.empty()) m_deferred.pop();
  m_timerIdleCv.wait(lk, [this] { return !m_timerRunning; });
}

void FaultInjector::timerLoop() {
  std::unique_lock<std::mutex> lk(m_timerMutex);
  for (;;) {
    if (m_timerStop) return;
    if (m_deferred.empty()) {
      m_timerCv.wait(lk,
                     [this] { return m_timerStop || !m_deferred.empty(); });
      continue;
    }
    const auto due = m_deferred.top().due;
    const auto now = std::chrono::steady_clock::now();
    if (now < due) {
      m_timerCv.wait_until(lk, due);
      continue;  // re-check: queue may have changed / stop requested
    }
    // Move the action out so the queue can be mutated while it runs.
    std::function<void()> fn =
        std::move(const_cast<Deferred&>(m_deferred.top()).fn);
    m_deferred.pop();
    m_timerRunning = true;
    lk.unlock();
    fn();
    lk.lock();
    m_timerRunning = false;
    m_timerIdleCv.notify_all();
  }
}

std::string FaultInjector::saveState() const {
  std::lock_guard<std::mutex> lk(m_mutex);
  std::ostringstream os;
  os << "faultinjector v1\n";
  os << "killed " << m_killed.size();
  for (int r : m_killed) os << ' ' << r;
  os << '\n';
  os << "scripts " << m_scripts.size();
  for (const ScriptState& s : m_scripts) os << ' ' << s.matches;
  os << '\n';
  os << "links " << m_links.size() << '\n';
  for (const auto& [key, link] : m_links) {
    os << key.first << ' ' << key.second << ' ' << link.count << ' '
       << (link.seeded ? 1 : 0) << ' ' << link.rng << '\n';
  }
  return os.str();
}

bool FaultInjector::restoreState(const std::string& blob) {
  std::istringstream is(blob);
  std::string word, version;
  if (!(is >> word >> version) || word != "faultinjector" || version != "v1")
    return false;

  std::size_t nKilled = 0;
  if (!(is >> word >> nKilled) || word != "killed") return false;
  std::set<int> killed;
  for (std::size_t i = 0; i < nKilled; ++i) {
    int r;
    if (!(is >> r)) return false;
    killed.insert(r);
  }

  std::size_t nScripts = 0;
  if (!(is >> word >> nScripts) || word != "scripts") return false;
  // The script list itself is configuration (re-registered by the caller);
  // only the match counters are state. Count mismatch = different config,
  // refused before the count sizes anything.
  std::lock_guard<std::mutex> lk(m_mutex);
  if (nScripts != m_scripts.size()) return false;
  std::vector<std::uint64_t> matches(nScripts);
  for (std::size_t i = 0; i < nScripts; ++i)
    if (!(is >> matches[i])) return false;

  std::size_t nLinks = 0;
  if (!(is >> word >> nLinks) || word != "links") return false;
  std::map<std::pair<int, int>, LinkState> links;
  for (std::size_t i = 0; i < nLinks; ++i) {
    int src, dst, seeded;
    LinkState link;
    if (!(is >> src >> dst >> link.count >> seeded >> link.rng)) return false;
    link.seeded = seeded != 0;
    links[{src, dst}] = std::move(link);
  }

  for (std::size_t i = 0; i < nScripts; ++i) m_scripts[i].matches = matches[i];
  m_killed = std::move(killed);
  m_links = std::move(links);
  return true;
}

FaultInjectorStats FaultInjector::stats() const {
  FaultInjectorStats s;
  s.examined = m_examined.load(std::memory_order_relaxed);
  s.dropped = m_dropped.load(std::memory_order_relaxed);
  s.delayed = m_delayed.load(std::memory_order_relaxed);
  s.duplicated = m_duplicated.load(std::memory_order_relaxed);
  s.reordered = m_reordered.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rmcrt::comm
