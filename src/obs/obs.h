// Observability subsystem: shared hook discipline.
//
// The obs layer — stats registry, energy-attribution ledger,
// Chrome-trace recorder and every hook threaded through the simulation
// stack — is always built. A hook whose sink is not attached costs one
// branch on a cached pointer — the same discipline as the buses'
// cached slave-control pointers.
#ifndef SCT_OBS_OBS_H
#define SCT_OBS_OBS_H

// Emission bodies (span/instant construction, argument packing) live in
// out-of-line cold functions so the hot simulation paths carry only a
// pointer test and a call that is never taken when nothing is attached.
// Keeping the dead emission code out of the hot functions preserves
// their I-cache footprint — measured to matter on the TL2 idle-gap
// benchmarks.
#if defined(__GNUC__) || defined(__clang__)
#define SCT_OBS_COLD [[gnu::cold]] [[gnu::noinline]]
#else
#define SCT_OBS_COLD
#endif

#endif // SCT_OBS_OBS_H
