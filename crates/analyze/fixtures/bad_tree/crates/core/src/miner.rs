//! Fixture: panics in a hot-path file.

pub fn hot(v: &[u32]) -> u32 {
    let first = v.first().unwrap();
    let second = v.get(1).expect("two");
    assert!(v.len() >= 3, "three");
    debug_assert!(v.len() < 9, "debug-only asserts are fine");
    // lint: allow(panic-in-hot-path) — fixture-sanctioned invariant
    let third = v.get(2).unwrap();
    first + second + third
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_in_tests_are_fine() {
        assert_eq!(super::hot(&[1, 2, 3]), "6".parse::<u32>().unwrap());
    }
}
