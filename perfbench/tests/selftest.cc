// Self-tests of the benchmark: the seeded operation stream is reproducible,
// writes stay on their owner's keys, the value checks reject every planted
// fault, and a run over a deliberately corrupted engine, or one that loses
// acknowledged writes on restart, fails.
//
//   perfbench_selftest SCRATCH_DIR

#include <cstdio>
#include <string>

#include "harness.h"
#include "ops.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool SameOp(const perfbench::Op& a, const perfbench::Op& b) {
  if (a.kind != b.kind || a.num_keys != b.num_keys) return false;
  for (int i = 0; i < a.num_keys; ++i) {
    if (a.keys[i] != b.keys[i]) return false;
  }
  return true;
}

perfbench::Mix AllKinds() {
  perfbench::Mix mix;
  for (int i = 0; i < perfbench::kNumOpKinds; ++i) mix.permille[i] = 1000 / 6;
  mix.permille[0] += 1000 - 6 * (1000 / 6);
  return mix;
}

void TestSeeds() {
  const perfbench::KeyDistribution dist{100000, true, 0.99, true};
  perfbench::OpStream a(42, 0, AllKinds(), dist, 0, 3);
  perfbench::OpStream b(42, 0, AllKinds(), dist, 0, 3);
  perfbench::OpStream c(43, 0, AllKinds(), dist, 0, 3);
  bool same = true, differs = false, owned = true;
  for (int i = 0; i < 100000; ++i) {
    const perfbench::Op x = a.Next();
    const perfbench::Op y = b.Next();
    const perfbench::Op z = c.Next();
    same &= SameOp(x, y);
    differs |= !SameOp(x, z);
    if (x.kind == perfbench::OpKind::kPut ||
        x.kind == perfbench::OpKind::kMultiPut) {
      for (int k = 0; k < x.num_keys; ++k) owned &= a.OwnerOf(x.keys[k]) == 0;
    }
  }
  Expect(same, "one seed gives an identical operation stream twice");
  Expect(differs, "another seed gives a different operation stream");
  Expect(owned, "writes target only the stream's own keys");

  bool bijective = true;
  std::vector<bool> seen(dist.num_keys, false);
  for (uint64_t r = 0; r < dist.num_keys; ++r) {
    const uint64_t key = a.KeyOfRank(r);
    bijective &= key < dist.num_keys && !seen[key];
    if (key < dist.num_keys) seen[key] = true;
  }
  Expect(bijective, "the scramble is a bijection of the key space");
}

void TestValueChecks() {
  using perfbench::CheckRead;
  using perfbench::EncodeValue;
  perfbench::VersionTable versions(10);
  versions.SetLoaded();
  const uint32_t v2 = versions.Issue(3);
  versions.Ack(3, v2);
  const char* why = nullptr;
  Expect(CheckRead(EncodeValue(3, 0, 2), 3, versions.acked(3), versions, &why),
         "a current value passes");
  Expect(!CheckRead(EncodeValue(4, 0, 2), 3, 0, versions, &why),
         "another key's value is caught");
  Expect(!CheckRead(EncodeValue(3, 0, 1), 3, versions.acked(3), versions, &why),
         "a stale version is caught");
  Expect(!CheckRead(EncodeValue(3, 0, 9), 3, 0, versions, &why),
         "a version never written is caught");
  std::string torn = EncodeValue(3, 0, 2);
  torn[40] ^= 1;
  Expect(!CheckRead(torn, 3, 0, versions, &why), "a flipped byte is caught");
  Expect(!CheckRead(EncodeValue(3, 0, 2).substr(0, 99), 3, 0, versions, &why),
         "a short value is caught");
  uint64_t index = 0;
  Expect(perfbench::ParseKey(perfbench::KeyAt(123), &index) && index == 123,
         "keys parse back to their index");
  Expect(!perfbench::ParseKey(perfbench::AbsentKeyAt(123), &index),
         "absent keys are not part of the key space");
}

void TestPlantedFaults(const std::string& dir) {
  for (const char* name : {"pm_read", "resp_sharded"}) {
    perfbench::WorkloadSpec spec;
    perfbench::FindWorkload(name, &spec);
    spec.num_keys = 20000;
    spec.dist.num_keys = spec.num_keys;
    spec.setups = 1;
    perfbench::RunConfig config;
    config.workload = name;
    config.seed = 7;
    config.seconds = 1;
    config.dir = dir + "/" + name;
    const std::string clean = std::string(name) + ": a clean run passes";
    Expect(perfbench::RunSpec(spec, config) == 0, clean.c_str());
    config.plant_faults = true;
    const std::string planted =
        std::string(name) + ": planted wrong values fail the run";
    Expect(perfbench::RunSpec(spec, config) == 1, planted.c_str());
  }
}

// The clean-restart check must catch acknowledged writes that a restart
// loses: deleting the WAL before the reopen drops the memtable's writes.
void TestLostWrites(const std::string& dir) {
  perfbench::WorkloadSpec spec;
  perfbench::FindWorkload("ssd_write", &spec);
  spec.num_keys = 20000;
  spec.dist.num_keys = spec.num_keys;
  spec.setups = 1;
  spec.min_major_compactions = 0;  // one second runs none
  perfbench::RunConfig config;
  config.workload = spec.name;
  config.seed = 7;
  config.seconds = 1;
  config.dir = dir + "/lost_writes";
  Expect(perfbench::RunSpec(spec, config) == 0,
         "ssd_write: a clean restart keeps every acknowledged write");
  config.lose_unflushed_writes = true;
  Expect(perfbench::RunSpec(spec, config) == 1,
         "ssd_write: acknowledged writes lost on restart fail the run");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s SCRATCH_DIR\n", argv[0]);
    return 2;
  }
  TestSeeds();
  TestValueChecks();
  TestPlantedFaults(argv[1]);
  TestLostWrites(argv[1]);
  std::printf("%s\n", failures == 0 ? "all self-tests passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
