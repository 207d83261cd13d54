// Package baselines implements the three previously-proposed designs
// §9.6 compares Nested ECPTs against:
//
//   - an idealized Agile Paging (Gandhi et al., ISCA'16): at most four
//     sequential memory accesses, all radix caching structures, and no
//     hypervisor intervention cost;
//   - POM-TLB (Ryoo et al., ISCA'17): a very large part-of-memory TLB
//     probed after an L2 TLB miss, modelled with a perfect page-size
//     predictor, falling back to a full nested radix walk;
//   - Flat nested page tables (Ahn et al., ISCA'12): a guest radix
//     table combined with a flat (single-access) host table, reducing
//     the worst case from 24 to 9 sequential accesses.
//
// Agile and Flat are configurations of core.RadixWalker — the one
// guest-radix walk over a free and a one-access host dimension; the
// POM-TLB is a cache in front of the Nested Radix configuration.
package baselines
