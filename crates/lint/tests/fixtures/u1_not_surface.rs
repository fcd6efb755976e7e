#![forbid(unsafe_code)]
pub(crate) fn crate_only() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    pub fn test_helper() -> u32 {
        super::crate_only()
    }

    #[test]
    fn helper_runs() {
        assert_eq!(test_helper(), 1);
    }
}
