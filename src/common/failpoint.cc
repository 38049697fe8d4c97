#include "common/failpoint.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>

#include "obs/metrics.hh"

namespace ive {
namespace fail {

namespace {

/** Alias so deadline arithmetic stays off the raw-chrono lint radar:
 *  this is scheduling (how long to block), not a latency measurement —
 *  samples that belong in telemetry go through obs::nowNs(). */
using Clock = std::chrono::steady_clock;

} // namespace

Failpoint::Failpoint(std::string name)
    : name_(std::move(name)),
      injected_(obs::Registry::global().counter(
          obs::names::faultsInjected(name_),
          "faults injected at this failpoint"))
{
}

Hit
Failpoint::evaluateArmed(u64 scope)
{
    bool fire = false;
    u64 arg = 0;
    {
        LockGuard lk(mu_);
        if (trig_.mode == Trigger::Mode::Off)
            return {};
        // Scope filter first: a non-matching evaluation does not count
        // a hit, so "fail exactly shard 2" is deterministic under a
        // concurrent broadcast.
        if (trig_.at != kAnyScope && scope != trig_.at)
            return {};
        ++hits_;
        switch (trig_.mode) {
        case Trigger::Mode::Off:
            break;
        case Trigger::Mode::Always:
            fire = true;
            break;
        case Trigger::Mode::Nth:
            fire = hits_ == trig_.n;
            break;
        case Trigger::Mode::Every:
            fire = trig_.n > 0 && hits_ % trig_.n == 0;
            break;
        }
        if (fire && trig_.limit > 0 && fires_ >= trig_.limit)
            fire = false;
        if (fire) {
            ++fires_;
            arg = trig_.arg;
        }
    }
    if (fire)
        injected_.add(1);
    return {fire, arg};
}

void
Failpoint::arm(const Trigger &trigger)
{
    {
        LockGuard lk(mu_);
        trig_ = trigger;
        hits_ = 0;
        fires_ = 0;
        // Stored under mu_ so a blockWhileArmed() waiter between its
        // predicate check and sleep cannot miss the transition.
        armed_.store(trigger.mode != Trigger::Mode::Off,
                     std::memory_order_relaxed);
    }
    if (trigger.mode == Trigger::Mode::Off)
        disarmCv_.notify_all();
}

void
Failpoint::disarm()
{
    {
        LockGuard lk(mu_);
        trig_ = Trigger{};
        // Under mu_ for the same lost-wakeup reason as in arm().
        armed_.store(false, std::memory_order_relaxed);
    }
    disarmCv_.notify_all();
}

void
Failpoint::blockWhileArmed(u64 cap_ms)
{
    UniqueLock lk(mu_);
    disarmCv_.wait_until(
        lk, Clock::now() + std::chrono::milliseconds(cap_ms), [this] {
            mu_.assertHeld();
            return !armed_.load(std::memory_order_relaxed);
        });
}

u64
Failpoint::hits() const
{
    LockGuard lk(mu_);
    return hits_;
}

u64
Failpoint::fires() const
{
    LockGuard lk(mu_);
    return fires_;
}

namespace {

/** Registry of failpoints by name. Leaked like obs::Registry: sites
 *  cache references that may be evaluated during static destruction. */
struct PointRegistry
{
    Mutex mu;
    std::map<std::string, std::unique_ptr<Failpoint>> points
        IVE_GUARDED_BY(mu);
    bool envLoaded IVE_GUARDED_BY(mu) = false;
};

PointRegistry &
registry()
{
    static PointRegistry *r = new PointRegistry;
    return *r;
}

Failpoint &
pointLocked(PointRegistry &r, const std::string &name)
    IVE_REQUIRES(r.mu)
{
    auto it = r.points.find(name);
    if (it == r.points.end())
        it = r.points
                 .emplace(name, std::make_unique<Failpoint>(name))
                 .first;
    return *it->second;
}

[[noreturn]] void
specError(const std::string &spec, const std::string &why)
{
    throw std::invalid_argument("IVE_FAILPOINTS: " + why + " in '" +
                                spec + "'");
}

u64
parseU64(const std::string &spec, const std::string &tok)
{
    try {
        size_t pos = 0;
        u64 v = std::stoull(tok, &pos);
        if (pos != tok.size())
            specError(spec, "trailing junk in number '" + tok + "'");
        return v;
    } catch (const std::invalid_argument &) {
        specError(spec, "expected a number, got '" + tok + "'");
    } catch (const std::out_of_range &) {
        specError(spec, "number out of range '" + tok + "'");
    }
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        size_t end = s.find(sep, start);
        if (end == std::string::npos)
            end = s.size();
        out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

/** Parses one trigger expression ("nth:2,arg=5,at=1"). */
Trigger
parseTrigger(const std::string &spec, const std::string &expr)
{
    std::vector<std::string> parts = split(expr, ',');
    Trigger t;

    // First part: the mode, possibly with ':'-separated parameters.
    std::vector<std::string> mode = split(parts[0], ':');
    if (mode[0] == "off") {
        if (mode.size() != 1)
            specError(spec, "'off' takes no parameters");
        t.mode = Trigger::Mode::Off;
    } else if (mode[0] == "always") {
        if (mode.size() != 1)
            specError(spec, "'always' takes no parameters");
        t.mode = Trigger::Mode::Always;
    } else if (mode[0] == "nth") {
        if (mode.size() != 2)
            specError(spec, "'nth' needs one parameter (nth:N)");
        t.mode = Trigger::Mode::Nth;
        t.n = parseU64(spec, mode[1]);
        if (t.n == 0)
            specError(spec, "'nth' index is 1-based; nth:0 never fires");
    } else if (mode[0] == "every") {
        if (mode.size() != 2)
            specError(spec, "'every' needs one parameter (every:N)");
        t.mode = Trigger::Mode::Every;
        t.n = parseU64(spec, mode[1]);
        if (t.n == 0)
            specError(spec, "'every' period must be positive");
    } else {
        specError(spec, "unknown trigger mode '" + mode[0] + "'");
    }

    // Remaining parts: key=value options.
    for (size_t i = 1; i < parts.size(); ++i) {
        size_t eq = parts[i].find('=');
        if (eq == std::string::npos)
            specError(spec, "expected key=value, got '" + parts[i] + "'");
        std::string key = parts[i].substr(0, eq);
        std::string val = parts[i].substr(eq + 1);
        if (key == "arg")
            t.arg = parseU64(spec, val);
        else if (key == "limit")
            t.limit = parseU64(spec, val);
        else if (key == "at")
            t.at = parseU64(spec, val);
        else
            specError(spec, "unknown option '" + key + "'");
    }
    return t;
}

} // namespace

Failpoint &
point(const std::string &name)
{
    // First registry touch applies IVE_FAILPOINTS (exactly once; an
    // explicit armFromEnv() call re-applies on demand).
    PointRegistry &r = registry();
    bool load = false;
    {
        LockGuard lk(r.mu);
        if (!r.envLoaded) {
            r.envLoaded = true;
            load = true;
        }
    }
    if (load)
        if (const char *env = std::getenv("IVE_FAILPOINTS"))
            armFromSpec(env);
    LockGuard lk(r.mu);
    return pointLocked(r, name);
}

void
armFromSpec(const std::string &spec)
{
    // Parse the entire spec before arming anything: a malformed tail
    // must not leave the process half-armed.
    std::vector<std::pair<std::string, Trigger>> parsed;
    for (const std::string &entry : split(spec, ';')) {
        if (entry.empty())
            continue; // Tolerate trailing/duplicated separators.
        size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0)
            specError(spec, "expected name=trigger, got '" + entry + "'");
        parsed.emplace_back(
            entry.substr(0, eq),
            parseTrigger(spec, entry.substr(eq + 1)));
    }

    PointRegistry &r = registry();
    std::vector<Failpoint *> to_arm;
    std::vector<Trigger> triggers;
    {
        LockGuard lk(r.mu);
        for (auto &[name, trig] : parsed) {
            to_arm.push_back(&pointLocked(r, name));
            triggers.push_back(trig);
        }
    }
    // Arm outside the registry lock (Failpoint has its own mutex).
    for (size_t i = 0; i < to_arm.size(); ++i)
        to_arm[i]->arm(triggers[i]);
}

void
armFromEnv()
{
    PointRegistry &r = registry();
    {
        LockGuard lk(r.mu);
        r.envLoaded = true; // The implicit first-touch load is covered.
    }
    if (const char *env = std::getenv("IVE_FAILPOINTS"))
        armFromSpec(env);
}

void
disarmAll()
{
    PointRegistry &r = registry();
    std::vector<Failpoint *> all;
    {
        LockGuard lk(r.mu);
        for (auto &[name, fp] : r.points)
            all.push_back(fp.get());
    }
    for (Failpoint *fp : all)
        fp->disarm();
}

std::vector<std::string>
armedPoints()
{
    PointRegistry &r = registry();
    std::vector<std::string> names;
    LockGuard lk(r.mu);
    for (auto &[name, fp] : r.points)
        if (fp->armed())
            names.push_back(name);
    return names; // std::map iteration is already sorted.
}

} // namespace fail
} // namespace ive
