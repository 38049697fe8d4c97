/**
 * @file
 * Voice-call metadata lookup (the paper's Vcall workload, from Addra).
 *
 * An anonymous-calling service stores one 288-byte mailbox per user;
 * clients fetch their peers' mailboxes privately. Small records are
 * packed many-per-plaintext: the client fetches the plaintext entry
 * containing its mailbox and extracts the 288-byte slice locally.
 *
 * Part 1 runs the packing scheme functionally on a small deployment.
 * Part 2 simulates the paper's full 384 GB deployment on a 16-system
 * IVE cluster (Table III row 'Vcall').
 */

#include <cstdio>
#include <cstring>

#include "common/units.hh"
#include "pir/server.hh"
#include "system/cluster.hh"

using namespace ive;

namespace {

constexpr u64 kMailboxBytes = 288;

/** Bytes -> packed mod-P coefficients (4 bytes per coefficient). */
void
packBytes(std::vector<u64> &coeffs, u64 coeff_offset, const u8 *data,
          u64 len)
{
    for (u64 i = 0; i < len; i += 4) {
        u64 v = 0;
        for (u64 b = 0; b < 4 && i + b < len; ++b)
            v |= static_cast<u64>(data[i + b]) << (8 * b);
        coeffs[coeff_offset + i / 4] = v;
    }
}

} // namespace

int
main()
{
    // ---- Part 1: functional packing demo ----
    PirParams params = PirParams::testSmall(); // 64 entries
    HeContext ctx(params.he);
    u64 per_entry = params.bytesPerPlaintext() / kMailboxBytes;
    u64 num_mailboxes = params.numEntries() * per_entry;
    std::printf("deployment: %llu mailboxes (%llu per %llu-byte "
                "entry)\n",
                (unsigned long long)num_mailboxes,
                (unsigned long long)per_entry,
                (unsigned long long)params.bytesPerPlaintext());

    // Every mailbox holds a deterministic message.
    auto mailbox_content = [](u64 user) {
        std::vector<u8> m(kMailboxBytes);
        for (u64 i = 0; i < kMailboxBytes; ++i)
            m[i] = static_cast<u8>((user * 131 + i * 7) & 0xff);
        return m;
    };

    Database db(ctx, params);
    db.fill([&](u64 entry, int) {
        std::vector<u64> coeffs(ctx.n(), 0);
        for (u64 s = 0; s < per_entry; ++s) {
            u64 user = entry * per_entry + s;
            auto m = mailbox_content(user);
            packBytes(coeffs, s * (kMailboxBytes / 4), m.data(),
                      kMailboxBytes);
        }
        return coeffs;
    });

    PirClient client(ctx, params, 99);
    PirServer server(ctx, params, &db,
                     std::make_shared<const PirPublicKeys>(
                         client.genPublicKeys()));

    u64 user = 777 % num_mailboxes;
    u64 entry = user / per_entry;
    u64 slot = user % per_entry;

    PirQuery q = client.makeQuery(entry);
    std::vector<u64> coeffs =
        client.decode(server.processAllPlanes(q)[0]);

    // Extract and verify the mailbox slice.
    auto expected = mailbox_content(user);
    bool ok = true;
    for (u64 i = 0; i < kMailboxBytes && ok; i += 4) {
        u64 v = coeffs[slot * (kMailboxBytes / 4) + i / 4];
        for (u64 b = 0; b < 4; ++b)
            ok = ok && static_cast<u8>(v >> (8 * b)) == expected[i + b];
    }
    std::printf("mailbox %llu retrieved privately: %s\n\n",
                (unsigned long long)user, ok ? "OK" : "FAIL");

    // ---- Part 2: paper-scale deployment (Table III 'Vcall') ----
    u64 db_bytes = 384 * GiB; // ~1.4 billion mailboxes
    auto r = simulateCluster(db_bytes, 16, IveConfig::ive32(), 128);
    std::printf("384 GB deployment on a 16-system IVE cluster, batch "
                "128:\n");
    std::printf("  throughput: %.1f QPS (%.2f per system); latency "
                "%.2f s\n", r.qps, r.qpsPerSystem, r.latencySec);
    std::printf("  (paper Table III: 413.0 QPS, 25.8 per system, vs "
                "INSPIRE 0.021)\n");
    return ok ? 0 : 1;
}
