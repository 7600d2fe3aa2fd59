#ifndef CRASHSIM_SIMRANK_WALK_H_
#define CRASHSIM_SIMRANK_WALK_H_

#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace crashsim {

// sqrt(c)-walk machinery (Definition 1): at each step the walk stops with
// probability 1 - sqrt(c), otherwise moves to a uniformly random in-neighbour
// of the current node. A node with no in-neighbours is a forced stop.

// Samples a reverse sqrt(c)-walk from v into *out (cleared first), including
// the start node, truncated to at most max_len nodes (so at most max_len - 1
// steps). Returns the walk length |W| = out->size().
int SampleSqrtCWalk(const Graph& g, NodeId v, double sqrt_c, int max_len,
                    Rng* rng, std::vector<NodeId>* out);

// Derived quantities of the truncation analysis (Theorem 1 / Lemmas 1-3).
// All take the decay factor c (not sqrt(c)).

// l_max = (1 + sqrt(c)) / (1 - sqrt(c))^2, rounded up (Lemma 1).
int CrashSimLMax(double c);

// p = sum_{k=1..l_max} (sqrt(c))^{k-1} (1 - sqrt(c)) = 1 - (sqrt(c))^{l_max}:
// the probability that an untruncated walk is no longer than l_max.
double CrashSimTruncationMass(double c, int l_max);

// epsilon_t = (sqrt(c))^{l_max}: the per-trial truncation error (Lemma 2).
double CrashSimTruncationError(double c, int l_max);

// n_r = 3c / (epsilon - p * epsilon_t)^2 * log(n / delta) (Lemma 3).
int64_t CrashSimTrialCount(double c, double epsilon, double delta, NodeId n);

// ProbeSim's untruncated trial count n_r' = 3c / epsilon^2 * log(n / delta)
// (from [10], quoted in the proof of Lemma 3).
int64_t ProbeSimTrialCount(double c, double epsilon, double delta, NodeId n);

// p * epsilon_t at l_max: Theorem 1's truncation term. It is the whole
// bound of CrashSim's sweep, which samples nothing (ALGORITHMS.md).
double CrashSimTruncationBound(double c, int l_max);

// The anytime reading of Theorem 1: inverting Lemma 3, after n_done
// completed trials (of a possibly larger plan) the achieved error bound is
//   epsilon_achieved = sqrt(3 c log(n / delta) / n_done) + p * eps_t
// with p and eps_t the truncation quantities at l_max. Returns +infinity
// when n_done <= 0 — no trials, no bound.
double CrashSimAchievedEpsilon(double c, double delta, NodeId n, int l_max,
                               int64_t n_done);

// Diagonal correction factors d(w) of the SLING decomposition
//   s(u, v) = sum_t sum_w h_t(u, w) h_t(v, w) d(w):
// d(w) = Pr[two independent sqrt(c)-walks from w never occupy the same node
// at the same step >= 1], estimated by `samples` walk pairs per node that
// draw a common step budget and stop at their first meeting (ALGORITHMS.md,
// "Diagonal corrections"; streams: kDiagonalDomain in util/rng.h). Each d(w)
// is a pure function of (g, c, samples, max_len, seed, w), so max_threads
// (ParallelFor's cap) changes no bit. Shared by SLING and CrashSim.
std::vector<double> EstimateDiagonalCorrections(const Graph& g, double c,
                                                int samples, int max_len,
                                                uint64_t seed,
                                                int max_threads);

}  // namespace crashsim

#endif  // CRASHSIM_SIMRANK_WALK_H_
