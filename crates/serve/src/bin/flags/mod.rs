//! The flag walker both `bcc-serve` binaries parse their command line
//! with: an unknown flag, a flag without a value, or a value that does
//! not parse is an error, never a silent default.

use std::str::FromStr;

/// Walks `--key value` pairs, handing each to `set`, which returns
/// whether the value parsed, or an error message for a flag it does
/// not know.
pub fn parse_flags(
    args: &[String],
    mut set: impl FnMut(&str, &str) -> Result<bool, String>,
) -> Result<(), String> {
    for pair in args.chunks(2) {
        let key = pair[0].as_str();
        let val = pair.get(1).ok_or(format!("missing value for {key}"))?;
        if !set(key, val)? {
            return Err(format!("bad value for {key}: {val}"));
        }
    }
    Ok(())
}

/// Parses `val` into `slot`, reporting whether it parsed.
pub fn set<T: FromStr>(slot: &mut T, val: &str) -> bool {
    val.parse().map(|v| *slot = v).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(args: &[&str]) -> Result<(u32, String), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let (mut n, mut name) = (0u32, String::new());
        parse_flags(&args, |key, val| {
            Ok(match key {
                "--n" => set(&mut n, val),
                "--name" => set(&mut name, val),
                other => return Err(format!("unknown flag {other}")),
            })
        })?;
        Ok((n, name))
    }

    #[test]
    fn walks_pairs_and_rejects_what_it_does_not_understand() {
        assert_eq!(walk(&[]), Ok((0, String::new())));
        assert_eq!(walk(&["--name", "x", "--n", "7"]), Ok((7, "x".into())));
        assert_eq!(
            walk(&["--n", "7", "--nmae", "x"]),
            Err("unknown flag --nmae".into())
        );
        assert_eq!(walk(&["--n"]), Err("missing value for --n".into()));
        assert_eq!(
            walk(&["--n", "--name", "x"]),
            Err("bad value for --n: --name".into())
        );
        assert_eq!(walk(&["7"]), Err("missing value for 7".into()));
    }
}
