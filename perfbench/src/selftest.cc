/**
 * @file
 * Checks that can fail: each output check of the benchmark is fed the
 * right answer (it must pass) and a planted wrong one (it must reject
 * it). Exits non-zero if any check accepts a wrong answer or rejects a
 * right one.
 *
 *   python3 perfbench/run.py --self-test
 */

#include <iostream>

#include "checks.hh"
#include "common.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expectPass(const char *what, const std::string &result)
{
    if (!result.empty()) {
        std::cout << "FAIL " << what << ": rejected a right answer: "
                  << result << "\n";
        ++failures;
    } else {
        std::cout << "ok   " << what << " accepts the right answer\n";
    }
}

void
expectReject(const char *what, const std::string &result)
{
    if (result.empty()) {
        std::cout << "FAIL " << what << ": accepted a planted wrong answer\n";
        ++failures;
    } else {
        std::cout << "ok   " << what << " rejects: " << result << "\n";
    }
}

std::vector<diq::trace::MicroOp>
someOps()
{
    std::vector<diq::trace::MicroOp> ops(64);
    for (size_t i = 0; i < ops.size(); ++i) {
        ops[i].pc = 0x1000 + 4 * i;
        ops[i].op = i % 3 ? diq::trace::OpClass::IntAlu
                          : diq::trace::OpClass::Load;
        ops[i].dest = int8_t(i % 30);
        ops[i].src1 = int8_t((i + 7) % 30);
        ops[i].memAddr = i % 3 ? 0 : 0x8000 + 8 * i;
    }
    return ops;
}

} // namespace

int
main()
{
    // Commit budget: overshoot must stay below the commit width.
    expectPass("commit budget", checkCommitBudget(50000, 50007, 8, false));
    expectReject("commit budget, overshoot of a full width",
                 checkCommitBudget(50000, 50008, 8, false));
    expectReject("commit budget, short", checkCommitBudget(50000, 49999, 8,
                                                           false));
    expectReject("commit budget, deadlock",
                 checkCommitBudget(50000, 50000, 8, true));

    // IPC bound.
    expectPass("ipc", checkIpc(8000, 1000, 8));
    expectReject("ipc above the commit width", checkIpc(8001, 1000, 8));

    // Retired stream vs source stream.
    auto ops = someOps();
    OpDigest src, retired, wrong;
    for (const auto &op : ops) {
        src.add(op);
        retired.add(op);
    }
    auto flipped = ops;
    flipped[39].memAddr ^= 8; // one wrong load address
    for (const auto &op : flipped)
        wrong.add(op);
    expectPass("retired-stream digest",
               checkStreamDigest("mb_distr", src.value(), retired.value()));
    expectReject("retired-stream digest, one wrong op",
                 checkStreamDigest("mb_distr", src.value(), wrong.value()));
    auto swapped = ops;
    std::swap(swapped[3], swapped[4]);
    OpDigest reordered;
    for (const auto &op : swapped)
        reordered.add(op);
    expectReject("retired-stream digest, two ops reordered",
                 checkStreamDigest("mb_distr", src.value(),
                                   reordered.value()));

    // Decoded trace vs generator.
    expectPass("decoded ops", checkSameOps(ops, ops));
    expectReject("decoded ops, one field", checkSameOps(ops, flipped));
    auto shorter = ops;
    shorter.pop_back();
    expectReject("decoded ops, truncated", checkSameOps(ops, shorter));

    // CSVs and codec images.
    const std::string csv = "benchmark,scheme,ipc\nswim,IQ_64_64,2.5\n";
    std::string flippedCsv = csv;
    flippedCsv[25] ^= 0x01;
    expectPass("rendered CSV", checkSameBytes("csv", csv, csv));
    expectReject("rendered CSV, one flipped byte",
                 checkSameBytes("csv", csv, flippedCsv));
    expectReject("rendered CSV, extra row",
                 checkSameBytes("csv", csv, csv + "gcc,IQ_64_64,1.9\n"));

    // The paper's energy claim.
    std::map<std::string, double> e = {
        {"iq6464", 10.0}, {"if_distr", 4.0}, {"mb_distr", 5.0}};
    expectPass("energy claim", checkEnergyClaim("swim", e, "iq6464"));
    e["mb_distr"] = 10.5;
    expectReject("energy claim, MixBUFF above CAM",
                 checkEnergyClaim("swim", e, "iq6464"));
    e["mb_distr"] = 10.0;
    expectReject("energy claim, MixBUFF equal to CAM",
                 checkEnergyClaim("swim", e, "iq6464"));

    // Warm passes hit every lookup.
    expectPass("warm hits", checkAllHits(104, 104));
    expectReject("warm hits, one miss", checkAllHits(103, 104));

    // The server computes each distinct point once.
    expectPass("computed count", checkComputedCount(88, 88));
    expectReject("computed count, one extra computed point",
                 checkComputedCount(89, 88));
    expectReject("computed count, one point never computed",
                 checkComputedCount(87, 88));

    // Cold points are computed, not served from the store.
    expectPass("cold point computed", checkComputed("cold point 3", 1));
    expectReject("cold point served from the store",
                 checkComputed("cold point 3", 0));

    // Interval runs replay the snapshot set the saving pass wrote.
    expectPass("interval replay", checkSnapshotReplay(true, true));
    expectReject("interval run that did not replay",
                 checkSnapshotReplay(true, false));
    expectPass("saving pass", checkSnapshotReplay(false, false));
    expectReject("saving pass that found a snapshot set",
                 checkSnapshotReplay(false, true));

    // No submit is refused.
    expectPass("no refusals", checkNoRefusals(0));
    expectReject("one submit refused as busy", checkNoRefusals(1));

    std::cout << (failures ? "self-test FAILED" : "self-test passed") << "\n";
    return failures ? 1 : 0;
}
