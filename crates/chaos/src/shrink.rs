//! Schedule shrinking: delta debugging ([`ddmin`]) over a failing
//! schedule, used by the federation harness in [`crate::cluster`].
//!
//! When a seed fails, the full generated schedule usually contains many
//! operations that are irrelevant to the violation. Every op of a
//! schedule is a no-op where it does not apply (a restore of a node
//! that is up, a publish from any client), so *any* subset of a schedule
//! is a well-formed schedule and delta debugging applies directly:
//! partition the list, try dropping complements, and keep the smallest
//! subset that still violates an invariant.

/// ddmin over any list whose every subset is well-formed: partition,
/// try dropping each chunk, keep the smallest subset on which `fails`
/// still holds. Returns that subset and how many times `fails` ran.
///
/// Precondition: `fails(items)`. Postcondition: the result still fails
/// and is 1-minimal — no single element can be removed from it without
/// the failure disappearing. The empty list is never tried.
pub fn ddmin<T: Clone>(items: &[T], mut fails: impl FnMut(&[T]) -> bool) -> (Vec<T>, usize) {
    let mut current: Vec<T> = items.to_vec();
    let mut runs = 0usize;
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0usize;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            // Try the complement: everything except current[start..end].
            let mut candidate: Vec<T> = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            runs += 1;
            if fails(&candidate) {
                current = candidate;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    // Final 1-minimality sweep: drop single elements until none can go.
    let mut i = 0;
    while current.len() > 1 && i < current.len() {
        let mut candidate = current.clone();
        candidate.remove(i);
        runs += 1;
        if fails(&candidate) {
            current = candidate;
            i = 0;
        } else {
            i += 1;
        }
    }
    (current, runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_finds_the_one_guilty_element_and_counts_its_runs() {
        let mut calls = 0;
        let (minimal, runs) = ddmin(&[1, 2, 3, 4, 5, 6, 7], |items| {
            calls += 1;
            items.contains(&5)
        });
        assert_eq!(minimal, [5]);
        assert_eq!(runs, calls);
    }

    #[test]
    fn ddmin_keeps_a_pair_that_fails_only_together() {
        let (minimal, _) = ddmin(&[1, 2, 3, 4, 5, 6], |items| {
            items.contains(&2) && items.contains(&6)
        });
        assert_eq!(minimal, [2, 6]);
    }
}
