/**
 * @file
 * Writes the golden-vector fixture blobs under tests/data/.
 *
 * Not a test: run once (and commit the output) whenever the wire
 * format legitimately changes — which also means bumping kWireVersion.
 * tests/test_golden.cc fails until the committed fixtures match the
 * encoder's current output. See tests/golden_common.hh for the fixture
 * definition.
 */

#include <cstdio>

#include "golden_common.hh"

using namespace ive;

int
main()
{
    PirParams params = golden::params();

    ClientSession client(params, golden::kClientSeed);
    std::vector<u8> params_blob = client.paramsBlob();
    std::vector<u8> key_blob = client.keyBlob();
    std::vector<u8> query_blob = client.queryBlob(golden::kEntry);

    ServerSession server(params_blob);
    server.database().fill([&](u64 entry, int plane) {
        return golden::entryContent(params, entry, plane);
    });
    server.ingestKeys(key_blob);
    std::vector<u8> response_blob = server.answer(query_blob);

    // Shard 0 of the canonical two-shard deployment (same DB content,
    // same keys): pins the PartialResponse encoding.
    HeContext ctx(params.he);
    Database db(ctx, params);
    db.fill([&](u64 entry, int plane) {
        return golden::entryContent(params, entry, plane);
    });
    PirServer shard0(ctx, params, &db,
                     std::make_shared<const PirPublicKeys>(
                         deserializePublicKeys(ctx, params, key_blob)),
                     golden::kPartialShard, golden::kPartialNumShards);
    std::vector<u8> partial_blob = answerQuery(shard0, query_blob);

    bool ok = golden::writeBlob("golden_params.bin", params_blob) &&
              golden::writeBlob("golden_query.bin", query_blob) &&
              golden::writeBlob("golden_response.bin", response_blob) &&
              golden::writeBlob("golden_partial_response.bin",
                                partial_blob);
    // The key blob is ~1 MB; pin its hash instead of committing it.
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx\n",
                  static_cast<unsigned long long>(
                      golden::fnv64(key_blob)));
    ok = ok && golden::writeBlob(
                   "golden_keyblob.fnv",
                   std::span(reinterpret_cast<const u8 *>(hash), 17));

    std::printf("wrote %s/{golden_params,golden_query,golden_response,"
                "golden_partial_response}.bin + golden_keyblob.fnv\n",
                IVE_TEST_DATA_DIR);
    std::printf("  params   %zu B\n  query    %zu B\n"
                "  response %zu B\n  partial  %zu B\n"
                "  keys     %zu B (fnv %s)",
                params_blob.size(), query_blob.size(),
                response_blob.size(), partial_blob.size(),
                key_blob.size(), hash);
    return ok ? 0 : 1;
}
