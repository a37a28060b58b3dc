//! Flag parsing shared by the `grmine` and `grmined` binaries.

/// Reject any `--flag` that is not in `known`, or that appears more than
/// once. A misspelt or repeated flag would otherwise be silently ignored
/// and the run would use a default or the first value.
pub fn check_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    for arg in args
        .iter()
        .map(String::as_str)
        .filter(|a| a.starts_with("--"))
    {
        if !known.contains(&arg) {
            return Err(format!("unknown flag `{arg}`"));
        }
        if seen.contains(&arg) {
            return Err(format!("flag `{arg}` given more than once"));
        }
        seen.push(arg);
    }
    Ok(())
}

/// Parse `name`'s value if the flag is present. A present flag whose
/// value is missing or unparseable is an error — silently falling back
/// to a default would turn a typo into a wrong run.
pub fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let Some(raw) = args.get(i + 1) else {
        return Err(format!("flag `{name}` is missing its value"));
    };
    raw.parse()
        .map(Some)
        .map_err(|_| format!("invalid value `{raw}` for flag `{name}`"))
}
