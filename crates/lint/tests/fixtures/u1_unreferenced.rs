#![forbid(unsafe_code)]
pub fn api() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    #[test]
    fn api_is_seven() {
        assert_eq!(super::api(), 7);
    }
}
