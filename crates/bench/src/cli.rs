//! The one command line of the `ewh-bench` binary: a subcommand table, one
//! argument parser, and one [`Table`] type that every subcommand reports
//! through — TSV on stdout and, under `--json PATH`, the same tables plus
//! the run's provenance as one JSON document.
//!
//! A subcommand is declared next to the code it runs (`SUBCOMMAND` in each
//! scenario module, `SUBCOMMANDS` in [`crate::paper`]) as its name, the
//! flags it takes beyond the shared ones, and a function from the parsed
//! [`Args`] to tables pushed into a [`Report`]. Anything the parser does
//! not know — a subcommand, a flag of that subcommand, a value that does
//! not parse — is an error with exit code 2, never a silent default.

use std::fmt::Write as _;

use ewh_core::SchemeKind;

use crate::harness::RunConfig;
use crate::{concurrent, latency, paper, pipeline, plan, spill, transport};

/// What a flag's value must look like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// No value: present or absent.
    Switch,
    Int,
    /// An integer of at least 1.
    Count,
    /// A finite number above 0.
    Positive,
    Text,
}

impl Kind {
    /// What `raw` should have been, if it is not a value of this kind.
    fn rejects(self, raw: &str) -> Option<&'static str> {
        let (ok, wanted) = match self {
            Kind::Int => (raw.parse::<u64>().is_ok(), "an integer"),
            Kind::Count => (
                raw.parse::<u64>().is_ok_and(|v| v >= 1),
                "an integer of at least 1",
            ),
            Kind::Positive => (
                raw.parse::<f64>().is_ok_and(|v| v.is_finite() && v > 0.0),
                "a number above 0",
            ),
            Kind::Switch | Kind::Text => (true, "text"),
        };
        (!ok).then_some(wanted)
    }
}

/// One command-line flag, e.g. `Flag("--budget-frac", Kind::Positive)`.
#[derive(Clone, Copy, Debug)]
pub struct Flag(pub &'static str, pub Kind);

/// The flags every subcommand accepts.
const SHARED: [Flag; 6] = [
    Flag("--scale", Kind::Positive),
    Flag("--j", Kind::Count),
    Flag("--threads", Kind::Count),
    Flag("--seed", Kind::Int),
    Flag("--csi-p", Kind::Count),
    Flag("--json", Kind::Text),
];

/// One entry of the subcommand table: its name, the flags it takes beyond
/// the shared ones, and what it runs.
pub struct Subcommand {
    pub name: &'static str,
    pub flags: &'static [Flag],
    pub run: fn(&Args, &mut Report),
}

impl Subcommand {
    pub const fn new(
        name: &'static str,
        flags: &'static [Flag],
        run: fn(&Args, &mut Report),
    ) -> Self {
        Subcommand { name, flags, run }
    }
}

/// Every subcommand, in the order `list` prints them: the eleven paper
/// figures and tables, then the engine scenarios.
pub fn subcommands() -> impl Iterator<Item = &'static Subcommand> {
    paper::SUBCOMMANDS.iter().chain([
        &pipeline::SUBCOMMAND,
        &plan::SUBCOMMAND,
        &spill::SUBCOMMAND,
        &concurrent::SUBCOMMAND,
        &latency::SUBCOMMAND,
        &transport::SUBCOMMAND,
    ])
}

/// A parsed command line: the shared [`RunConfig`] plus every flag given,
/// each value already checked against its declared [`Kind`].
#[derive(Clone, Debug)]
pub struct Args {
    pub rc: RunConfig,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Whether the flag (or switch) was given.
    pub fn has(&self, flag: &str) -> bool {
        self.values.iter().any(|(name, _)| *name == flag)
    }

    /// The last value given for `flag`, as the type its [`Kind`] stands for.
    pub fn get<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let (_, raw) = self.values.iter().rev().find(|(name, _)| *name == flag)?;
        let value = raw.parse().ok();
        Some(value.unwrap_or_else(|| panic!("`{flag}` is not declared as the kind it is read as")))
    }
}

/// The usage text: every subcommand with the flags of its own.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: ewh-bench <subcommand> [--scale X] [--j N] [--threads N] [--seed S] \
         [--csi-p P] [--json PATH] [flags]\n       ewh-bench list\n\nsubcommands:\n",
    );
    for sub in subcommands() {
        let flags: Vec<String> = sub.flags.iter().map(|f| format!(" [{}]", f.0)).collect();
        let _ = writeln!(out, "  {}{}", sub.name, flags.concat());
    }
    out
}

/// Parses `<subcommand> [flags]`. Rejects an unknown subcommand, a flag
/// the subcommand does not declare, and a missing, unparsable or
/// out-of-range value.
pub fn parse(argv: &[String]) -> Result<(&'static Subcommand, Args), String> {
    let name = argv.first().ok_or("no subcommand given")?;
    let sub = subcommands()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown subcommand `{name}`"))?;
    let mut values = Vec::new();
    let mut rest = argv[1..].iter();
    while let Some(arg) = rest.next() {
        let &Flag(flag, kind) = SHARED
            .iter()
            .chain(sub.flags)
            .find(|f| f.0 == arg)
            .ok_or_else(|| format!("`{}` takes no flag `{arg}`", sub.name))?;
        let raw = match kind {
            Kind::Switch => "",
            _ => rest
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?,
        };
        if let Some(wanted) = kind.rejects(raw) {
            return Err(format!("`{flag}` takes {wanted}, got `{raw}`"));
        }
        values.push((flag, raw.to_string()));
    }
    let mut args = Args {
        rc: RunConfig::default(),
        values,
    };
    let d = args.rc;
    args.rc = RunConfig {
        scale: args.get("--scale").unwrap_or(d.scale),
        j: args.get("--j").unwrap_or(d.j),
        threads: args.get("--threads").unwrap_or(d.threads),
        seed: args.get("--seed").unwrap_or(d.seed),
        csi_p: args.get("--csi-p").unwrap_or(d.csi_p),
    };
    Ok((sub, args))
}

/// The whole program: parse `argv` (without the program name), run the
/// subcommand, write the JSON document if asked. Returns the exit code.
pub fn run(argv: Vec<String>) -> i32 {
    if argv == ["list"] {
        subcommands().for_each(|sub| println!("{}", sub.name));
        return 0;
    }
    match parse(&argv) {
        Ok((sub, args)) => {
            let mut report = Report::new(sub.name, &args);
            (sub.run)(&args, &mut report);
            report.finish();
            0
        }
        Err(reason) => {
            eprintln!("error: {reason}\n\n{}", usage());
            2
        }
    }
}

/// One table cell: its TSV text, and whether JSON must quote it. Numbers
/// stay numbers in JSON, with the digits TSV shows.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    text: String,
    quoted: bool,
}

/// A float cell printed with `decimals` digits after the point.
pub fn f(value: f64, decimals: usize) -> Cell {
    Cell {
        text: format!("{value:.decimals$}"),
        quoted: false,
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        s.to_string().into()
    }
}

impl From<String> for Cell {
    fn from(text: String) -> Self {
        Cell { text, quoted: true }
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell {
            text: v.to_string(),
            quoted: false,
        }
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        (v as u64).into()
    }
}

impl From<SchemeKind> for Cell {
    fn from(kind: SchemeKind) -> Self {
        kind.to_string().into()
    }
}

impl Cell {
    fn json(&self) -> String {
        if self.quoted {
            json_string(&self.text)
        } else if self.text.parse::<f64>().is_ok_and(f64::is_finite) {
            self.text.clone()
        } else {
            "null".into() // NaN and infinities have no JSON spelling
        }
    }
}

/// A JSON string literal — the one place anything is escaped.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A titled table of typed cells.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<&'static str>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&'static str]) -> Self {
        Table {
            title: title.into(),
            header: header.to_vec(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.header.len(), "{}: row width", self.title);
        self.rows.push(cells);
    }

    /// `# title`, the header, one line per row, a blank line.
    pub fn tsv(&self) -> String {
        let mut out = format!("# {}\n{}\n", self.title, self.header.join("\t"));
        for row in &self.rows {
            let cells: Vec<&str> = row.iter().map(|c| c.text.as_str()).collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        out.push('\n');
        out
    }

    /// `{"title": …, "rows": [{column: cell, …}, …]}`.
    pub fn json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = self
                    .header
                    .iter()
                    .zip(row)
                    .map(|(name, cell)| format!("{}: {}", json_string(name), cell.json()))
                    .collect();
                format!("      {{{}}}", fields.join(", "))
            })
            .collect();
        format!(
            "    {{\n      \"title\": {},\n      \"rows\": [\n  {}\n      ]\n    }}",
            json_string(&self.title),
            rows.join(",\n  ")
        )
    }
}

/// What one subcommand run reports: each pushed table goes to stdout as
/// TSV at once and, when the subcommand returns, into the `--json` document next
/// to the commit, host and configuration the numbers came from.
pub struct Report {
    bench: &'static str,
    /// The configuration recorded in the JSON document; a subcommand whose
    /// pool is sized by `--workers` records that as `threads`.
    pub(crate) rc: RunConfig,
    json: Option<String>,
    tables: Vec<Table>,
}

impl Report {
    fn new(bench: &'static str, args: &Args) -> Self {
        Report {
            bench,
            rc: args.rc,
            json: args.get("--json"),
            tables: Vec::new(),
        }
    }

    pub fn push(&mut self, table: Table) {
        print!("{}", table.tsv());
        self.tables.push(table);
    }

    /// The JSON document: provenance, then every table pushed so far.
    pub fn json(&self) -> String {
        let tables: Vec<String> = self.tables.iter().map(Table::json).collect();
        format!(
            "{{\n  \"bench\": {},\n  \"commit\": {},\n  \"host_cores\": {},\n  \"threads\": {},\n  \
             \"scale\": {},\n  \"seed\": {},\n  \"tables\": [\n{}\n  ]\n}}\n",
            json_string(self.bench),
            json_string(&crate::harness::commit()),
            std::thread::available_parallelism().map_or(0, |p| p.get()),
            self.rc.threads,
            self.rc.scale,
            self.rc.seed,
            tables.join(",\n")
        )
    }

    fn finish(self) {
        if let Some(path) = &self.json {
            std::fs::write(path, self.json()).expect("writing the JSON report failed");
            eprintln!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn rejected(words: &[&str]) -> String {
        match parse(&argv(words)) {
            Ok((sub, _)) => panic!("{words:?} was accepted as `{}`", sub.name),
            Err(reason) => reason,
        }
    }

    #[test]
    fn an_unknown_subcommand_is_rejected() {
        assert!(rejected(&["fig4z"]).contains("unknown subcommand `fig4z`"));
        assert!(rejected(&[]).contains("no subcommand"));
    }

    #[test]
    fn an_unknown_flag_for_that_subcommand_is_rejected() {
        assert!(rejected(&["fig4a", "--thread", "2"]).contains("no flag `--thread`"));
        assert!(rejected(&["fig4a", "--scal", "0.1"]).contains("no flag `--scal`"));
        // Declared, but by another subcommand.
        assert!(rejected(&["fig4a", "--budget-frac", "0.5"]).contains("--budget-frac"));
        assert!(parse(&argv(&["spill", "--budget-frac", "0.5"])).is_ok());
    }

    #[test]
    fn a_missing_value_is_rejected() {
        assert!(rejected(&["fig4a", "--scale"]).contains("`--scale` needs a value"));
        assert!(rejected(&["table5", "--json"]).contains("`--json` needs a value"));
    }

    #[test]
    fn an_unparsable_or_out_of_range_value_is_rejected() {
        assert!(rejected(&["fig4a", "--scale", "big"]).contains("takes a number above 0"));
        assert!(rejected(&["fig4a", "--threads", "2.5"]).contains("takes an integer"));
        assert!(rejected(&["fig4a", "--seed", "-1"]).contains("takes an integer"));
        assert!(rejected(&["fig4a", "--threads", "0"]).contains("at least 1"));
        assert!(rejected(&["concurrent", "--queries", "0"]).contains("at least 1"));
        assert!(rejected(&["fig4a", "--scale", "0"]).contains("takes a number above 0"));
        assert!(rejected(&["fig4a", "--scale", "inf"]).contains("takes a number above 0"));
    }

    #[test]
    fn every_listed_name_dispatches_and_accepts_json() {
        let mut names: Vec<&str> = subcommands().map(|s| s.name).collect();
        for &name in &names {
            let (sub, args) = parse(&argv(&[name, "--json", "out.json", "--threads", "3"]))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(sub.name, name);
            assert_eq!(args.get::<String>("--json").as_deref(), Some("out.json"));
            assert_eq!(args.rc.threads, 3);
            assert!(usage().contains(name));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17, "duplicate subcommand name");
        assert!(!names.contains(&"list"));
    }

    #[test]
    fn shared_flags_fill_the_run_config_and_extras_keep_their_type() {
        let (_, args) = parse(&argv(&[
            "fig4h",
            "--scale",
            "0.5",
            "--j",
            "8",
            "--seed",
            "7",
            "--csi-p",
            "64",
            "--per-region",
        ]))
        .unwrap();
        assert_eq!(
            (args.rc.scale, args.rc.j, args.rc.seed, args.rc.csi_p),
            (0.5, 8, 7, 64)
        );
        assert!(args.has("--per-region") && !args.has("--json"));
        let (_, args) = parse(&argv(&[
            "latency",
            "--small",
            "8",
            "--analytic-scale",
            "1.5",
        ]))
        .unwrap();
        assert_eq!(args.get::<usize>("--small"), Some(8));
        assert_eq!(args.get::<f64>("--analytic-scale"), Some(1.5));
        assert_eq!(args.get::<usize>("--workers"), None);
    }

    #[test]
    fn a_table_renders_the_same_cells_as_tsv_and_as_json() {
        let mut t = Table::new("a \"quoted\" title", &["join", "n", "secs"]);
        t.row(vec!["B\\CB\t3".into(), 42usize.into(), f(0.12345, 3)]);
        t.row(vec![SchemeKind::Csio.into(), 7u64.into(), f(f64::NAN, 2)]);
        assert_eq!(
            t.tsv(),
            "# a \"quoted\" title\njoin\tn\tsecs\nB\\CB\t3\t42\t0.123\nCSIO\t7\tNaN\n\n"
        );
        let json = t.json();
        assert!(json.contains(r#""title": "a \"quoted\" title""#));
        assert!(json.contains(r#"{"join": "B\\CB\u00093", "n": 42, "secs": 0.123}"#));
        assert!(json.contains(r#"{"join": "CSIO", "n": 7, "secs": null}"#));
    }
}
