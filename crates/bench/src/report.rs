//! Reporting helpers for the bench targets: aligned tables and CSVs.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The workspace root. `cargo bench` runs bench binaries with the
/// *package* directory as CWD, so relative paths from the command line
/// (e.g. a committed baseline file) must be resolved against this, not
/// against the process CWD.
pub fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let manifest = env!("CARGO_MANIFEST_DIR");
    Path::new(manifest)
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// Directory the bench targets write CSV series into, resolved relative
/// to the workspace root when run via `cargo bench`.
pub fn results_dir() -> PathBuf {
    workspace_root().join("bench_results")
}

/// Writes `contents` into `bench_results/<name>`, creating the directory.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_results_file(name: &str, contents: &str) -> io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}

/// Renders two aligned columns of per-index series as CSV
/// (`packet,<a_name>,<b_name>`), truncated to the shorter series.
pub fn two_series_csv(a_name: &str, a: &[f64], b_name: &str, b: &[f64]) -> String {
    let mut out = format!("packet,{a_name},{b_name}\n");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        out.push_str(&format!("{i},{x:.4},{y:.4}\n"));
    }
    out
}

/// Formats a row-oriented text table with a header, padding each column
/// to its widest cell. Cells beyond the header's columns are printed at
/// their own width.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let width = widths.get(i).copied().unwrap_or(0);
            out.push_str(&format!("{cell:>width$}"));
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    render(&header_cells, &widths, &mut out);
    let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        render(row, &widths, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_series_csv_truncates_to_shorter() {
        let csv = two_series_csv("a", &[1.0, 2.0, 3.0], "b", &[4.0, 5.0]);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 rows
        assert_eq!(lines[0], "packet,a,b");
        assert!(lines[1].starts_with("0,1.0000,4.0000"));
    }

    #[test]
    fn table_aligns_columns() {
        let out = table(
            &["name", "value"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "22".into()],
                vec!["y".into(), "3".into(), "extra".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        // Right-aligned in a 6-wide column.
        assert!(lines[2].starts_with("     x"));
        assert!(lines[3].starts_with("longer"));
        // A cell with no header column is printed at its own width.
        assert_eq!(lines[4], "     y      3  extra");
    }

    #[test]
    fn results_dir_is_under_workspace_root() {
        let dir = results_dir();
        assert!(dir.ends_with("bench_results"));
        assert!(dir.parent().unwrap().join("Cargo.toml").exists());
    }
}
