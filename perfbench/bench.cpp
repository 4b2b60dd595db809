#include "bench.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

std::string
Expectations::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return "cannot open " + path;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream ss(line);
        std::string workload;
        std::string seed;
        std::string key;
        std::string digest;
        if (!(ss >> workload))
            continue;
        std::string extra;
        if (!(ss >> seed >> key >> digest) || (ss >> extra) ||
            seed.find_first_not_of("0123456789") != std::string::npos)
            return format("%s:%d: expected '<workload> <seed> <key> "
                          "<digest>'",
                          path.c_str(), lineno);
        table_[workload][std::stoull(seed)][key] = digest;
    }
    return "";
}

const DigestMap *
Expectations::find(const std::string &workload, uint64_t seed) const
{
    const auto w = table_.find(workload);
    if (w == table_.end())
        return nullptr;
    const auto s = w->second.find(seed);
    return s == w->second.end() ? nullptr : &s->second;
}

void
Result::fail(uint64_t n, const std::string &why)
{
    failed += n;
    correct = false;
    note("FAILED: " + why);
}

std::string
digestOf(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return format("%016llx", static_cast<unsigned long long>(h));
}

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

bool
keepFastest(std::vector<double> &best, const std::vector<double> &sample)
{
    if (best.empty())
        best = sample;
    for (size_t i = 0; i < std::min(best.size(), sample.size()); ++i)
        best[i] = std::min(best[i], sample[i]);
    return best.size() == sample.size();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

void
addMedian(Result &res, const std::string &name, const std::vector<double> &v,
          const std::string &unit)
{
    res.add(name, median(v), unit);
    if (!v.empty())
        res.note(format("%s: median of %zu = %.6g, range %.6g .. %.6g",
                        name.c_str(), v.size(), median(v),
                        *std::min_element(v.begin(), v.end()),
                        *std::max_element(v.begin(), v.end())));
}

std::string
runIsolated(const std::function<std::string()> &fn)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return "";
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return "";
    }
    if (pid == 0) {
        ::close(fds[0]);
        const std::string out = fn();
        size_t off = 0;
        while (off < out.size()) {
            const ssize_t n =
                ::write(fds[1], out.data() + off, out.size() - off);
            if (n <= 0)
                ::_exit(1);
            off += static_cast<size_t>(n);
        }
        ::_exit(0);
    }
    ::close(fds[1]);
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n > 0)
            out.append(buf, static_cast<size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? out : "";
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t
countMismatches(const Options &opt, const DigestMap &got,
                const DigestMap *reference, Result &res)
{
    const DigestMap *expected =
        opt.expect ? opt.expect->find(opt.workload, opt.seed) : nullptr;
    std::set<std::string> bad;
    auto check = [&](const DigestMap &want, const char *what) {
        for (const auto &[key, digest] : want) {
            const auto it = got.find(key);
            const std::string have =
                it == got.end() ? "<missing>" : it->second;
            if (have == digest)
                continue;
            bad.insert(key);
            if (bad.size() <= 3)
                res.note(format("digest mismatch for %s against %s: "
                                "got %s, want %s",
                                key.c_str(), what, have.c_str(),
                                digest.c_str()));
        }
    };
    if (expected)
        check(*expected, "the committed expectation");
    if (reference)
        check(*reference, "the reference path");
    return bad.size();
}

void
emitDigests(const Options &opt, const DigestMap &got)
{
    if (opt.emitDigests.empty())
        return;
    std::FILE *f = std::fopen(opt.emitDigests.c_str(), "a");
    if (!f)
        return;
    for (const auto &[key, digest] : got)
        std::fprintf(f, "%s %llu %s %s\n", opt.workload.c_str(),
                     static_cast<unsigned long long>(opt.seed),
                     key.c_str(), digest.c_str());
    std::fclose(f);
}

} // namespace perfbench
