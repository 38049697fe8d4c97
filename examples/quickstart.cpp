/**
 * @file
 * Quickstart: a complete single-server PIR round trip.
 *
 * A client retrieves one record from the server's database; the server
 * learns nothing about which record was requested. This walks the full
 * OnionPIR-style pipeline the IVE accelerator executes: query packing,
 * ExpandQuery, RowSel, ColTor, decode.
 */

#include <cstdio>
#include <string>

#include "bfv/noise.hh"
#include "pir/server.hh"

using namespace ive;

int
main()
{
    // 1. Parameters: a small database of 64 entries (testSmall uses a
    //    reduced ring so this runs in well under a second).
    PirParams params = PirParams::testSmall(); // D0=16, d=2 -> 64 entries
    params.validate();
    HeContext ctx(params.he);
    std::printf("ring degree N = %llu, |Q| = %.1f bits, P = 2^32\n",
                (unsigned long long)ctx.n(), ctx.ring().base.logQ());
    std::printf("database: %llu entries x %llu bytes\n",
                (unsigned long long)params.numEntries(),
                (unsigned long long)params.bytesPerPlaintext());

    // 2. Server side: build and preprocess the database (CRT + NTT).
    Database db(ctx, params);
    db.fill([&](u64 entry, int) {
        // Entry i holds the pattern (i, i+1, i+2, ...) mod 2^32.
        std::vector<u64> coeffs(ctx.n());
        for (u64 j = 0; j < ctx.n(); ++j)
            coeffs[j] = (entry * 1000 + j) & 0xffffffffu;
        return coeffs;
    });

    // 3. Client side: keys and a query for entry 42.
    PirClient client(ctx, params, /*seed=*/2024);
    auto keys = std::make_shared<const PirPublicKeys>(
        client.genPublicKeys());
    std::printf("client upload (keys + query): %.2f MiB\n",
                (keys->byteSize(ctx) + BfvCiphertext::byteSize(ctx)) /
                    (1024.0 * 1024.0));

    u64 secret_index = 42;
    PirQuery query = client.makeQuery(secret_index);

    // 4. Server processes the query obliviously.
    PirServer server(ctx, params, &db, keys);
    BfvCiphertext response = server.processAllPlanes(query)[0];
    std::printf("server ops: %llu Subs, %llu external products, "
                "%llu plaintext MACs\n",
                (unsigned long long)server.counters().subsOps,
                (unsigned long long)server.counters().externalProducts,
                (unsigned long long)server.counters().plainMulAccs);

    // 5. Client decodes.
    std::vector<u64> record = client.decode(response);
    std::vector<u64> expected = db.entryCoeffs(secret_index);
    bool ok = record == expected;
    NoiseReport noise = client.responseNoise(response, expected);
    std::printf("retrieved entry %llu: first coeffs = %llu %llu %llu\n",
                (unsigned long long)secret_index,
                (unsigned long long)record[0],
                (unsigned long long)record[1],
                (unsigned long long)record[2]);
    std::printf("correct: %s | response noise %.1f bits, remaining "
                "budget %.1f bits\n",
                ok ? "YES" : "NO", noise.noiseBits, noise.budgetBits);
    return ok ? 0 : 1;
}
