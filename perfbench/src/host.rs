//! The host line printed with every result: hardware threads, CPU model,
//! rustc version, and the commit measured.

use std::path::Path;
use std::process::Command;

/// One JSON object describing the host and the measured source.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        cpu.replace('"', "'"),
        output("rustc", &["--version"], &repo),
        output("git", &["rev-parse", "HEAD"], &repo)
    )
}

/// First line of a command's standard output, or `unknown`.
fn output(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}
