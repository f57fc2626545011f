//! Independent checking of `itpseq-cert/v1` proof certificates.
//!
//! The model-checking engines in `crates/core` attach evidence to their
//! conclusive verdicts: an inductive invariant for `proved`, a replayable
//! input trace for `falsified`.  This crate validates that evidence from
//! scratch, so a certified verdict no longer requires trusting any engine
//! code — the trust path is exactly the design parser ([`aig::parse_aag`]),
//! the Tseitin encoder (`cnf`), the SAT solver (`sat`), the replay
//! interpreter ([`aig::simulate`](fn@aig::simulate)) and the std-only JSON
//! reader that parses the documents ([`telemetry::json`]).
//!
//! An invariant certificate `Inv` for property `p` is accepted when three
//! SAT queries, each built by a fresh [`cnf::Unroller`] over the re-parsed
//! design and discharged by a fresh [`sat::Solver`], are all unsatisfiable:
//!
//! 1. **initiation** — `init ∧ ¬Inv`,
//! 2. **consecution** — `Inv ∧ T ∧ ¬Inv′`,
//! 3. **safety** — `Inv ∧ bad_p`.
//!
//! A trace certificate is accepted when simulating its inputs from the
//! reset state makes `bad_p` fire at *exactly* the reported depth (and at
//! no earlier cycle — the engines report minimal depths).

use aig::Aig;
use cnf::Unroller;
use sat::{SolveResult, Solver};
use telemetry::json::Json;

/// One parsed `itpseq-cert/v1` document.
#[derive(Clone, Debug)]
pub struct CertDocument {
    /// Schema tag (`"itpseq-cert/v1"`).
    pub schema: String,
    /// File name of the `.aag` design the certificates talk about,
    /// relative to the document.
    pub design: String,
    /// One entry per verified property.
    pub entries: Vec<CertEntry>,
}

/// One property's record.
#[derive(Clone, Debug)]
pub struct CertEntry {
    /// Bad-property index within the design.
    pub property: usize,
    /// Engine name, when recorded.
    pub engine: Option<String>,
    /// `"proved"`, `"falsified"` or `"inconclusive"`.
    pub verdict: String,
    /// Reported counterexample depth for falsified properties.
    pub depth: Option<usize>,
    /// The evidence.
    pub certificate: Option<Cert>,
}

/// A decoded certificate.
#[derive(Clone, Debug)]
pub enum Cert {
    /// Inductive invariant: CNF clauses over latch literals plus an
    /// optional combinational cone (see `mc::certificate` for the
    /// emitter's description of the encoding).
    Invariant {
        num_latches: usize,
        clauses: Vec<Vec<(usize, bool)>>,
        cone: Option<Cone>,
    },
    /// Replayable input trace: one vector of input values per cycle.
    Trace(Vec<Vec<bool>>),
}

/// The combinational part of an invariant, in AIGER-style `u32` literals:
/// `var = lit >> 1`, LSB = complemented; var 0 is the constant, vars
/// `1..=num_latches` are the latches, var `num_latches + 1 + j` is defined
/// by `ands[j]`.
#[derive(Clone, Debug)]
pub struct Cone {
    pub ands: Vec<(u32, u32)>,
    pub root: u32,
}

/// How one entry fared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The certificate checked out.
    Accepted,
    /// The entry carries nothing to check (inconclusive verdicts, or a
    /// conclusive verdict whose engine was interrupted before emitting).
    Skipped(String),
    /// The certificate is wrong (or inconsistent with the verdict).
    Rejected(String),
}

/// Parses a full `itpseq-cert/v1` document.
pub fn parse_document(text: &str) -> Result<CertDocument, String> {
    let root = Json::parse(text)?;
    let schema = root
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\"")?
        .to_string();
    if schema != "itpseq-cert/v1" {
        return Err(format!("unsupported schema {schema:?}"));
    }
    let design = root
        .get("design")
        .and_then(Json::as_str)
        .ok_or("missing \"design\"")?
        .to_string();
    let mut entries = Vec::new();
    for (index, entry) in root
        .get("properties")
        .and_then(Json::as_array)
        .ok_or("missing \"properties\"")?
        .iter()
        .enumerate()
    {
        entries.push(parse_entry(entry).map_err(|e| format!("properties[{index}]: {e}"))?);
    }
    Ok(CertDocument {
        schema,
        design,
        entries,
    })
}

fn parse_entry(entry: &Json) -> Result<CertEntry, String> {
    let property = entry
        .get("property")
        .and_then(Json::as_usize)
        .ok_or("missing \"property\"")?;
    let engine = entry
        .get("engine")
        .and_then(Json::as_str)
        .map(str::to_string);
    let verdict = entry
        .get("verdict")
        .and_then(Json::as_str)
        .ok_or("missing \"verdict\"")?
        .to_string();
    let depth = entry.get("depth").and_then(Json::as_usize);
    let certificate = entry
        .get("certificate")
        .map(parse_certificate)
        .transpose()?;
    Ok(CertEntry {
        property,
        engine,
        verdict,
        depth,
        certificate,
    })
}

fn parse_certificate(cert: &Json) -> Result<Cert, String> {
    match cert.get("kind").and_then(Json::as_str) {
        Some("invariant") => {
            let num_latches = cert
                .get("num_latches")
                .and_then(Json::as_usize)
                .ok_or("missing \"num_latches\"")?;
            let mut clauses = Vec::new();
            for clause in cert
                .get("clauses")
                .and_then(Json::as_array)
                .ok_or("missing \"clauses\"")?
            {
                let mut lits = Vec::new();
                for lit in clause.as_array().ok_or("clause must be an array")? {
                    let pair = lit.as_array().ok_or("literal must be [latch, phase]")?;
                    let [latch, phase] = pair else {
                        return Err("literal must be [latch, phase]".to_string());
                    };
                    lits.push((
                        latch.as_usize().ok_or("bad latch index")?,
                        phase.as_bool().ok_or("bad literal phase")?,
                    ));
                }
                clauses.push(lits);
            }
            let cone = cert
                .get("cone")
                .map(|cone| -> Result<Cone, String> {
                    let mut ands = Vec::new();
                    for and in cone
                        .get("ands")
                        .and_then(Json::as_array)
                        .ok_or("missing \"ands\"")?
                    {
                        let pair = and.as_array().ok_or("and must be [left, right]")?;
                        let [left, right] = pair else {
                            return Err("and must be [left, right]".to_string());
                        };
                        ands.push((
                            left.as_usize().ok_or("bad and literal")? as u32,
                            right.as_usize().ok_or("bad and literal")? as u32,
                        ));
                    }
                    let root = cone
                        .get("root")
                        .and_then(Json::as_usize)
                        .ok_or("missing \"root\"")? as u32;
                    Ok(Cone { ands, root })
                })
                .transpose()?;
            Ok(Cert::Invariant {
                num_latches,
                clauses,
                cone,
            })
        }
        Some("trace") => {
            let mut frames = Vec::new();
            for frame in cert
                .get("inputs")
                .and_then(Json::as_array)
                .ok_or("missing \"inputs\"")?
            {
                frames.push(
                    frame
                        .as_array()
                        .ok_or("input frame must be an array")?
                        .iter()
                        .map(|b| b.as_bool().ok_or("input values must be booleans"))
                        .collect::<Result<Vec<bool>, _>>()?,
                );
            }
            Ok(Cert::Trace(frames))
        }
        other => Err(format!("unknown certificate kind {other:?}")),
    }
}

/// Checks one entry against the (re-parsed) design.
pub fn check_entry(design: &Aig, entry: &CertEntry) -> Outcome {
    if entry.property >= design.num_bad() {
        return Outcome::Rejected(format!(
            "property {} out of range (design has {})",
            entry.property,
            design.num_bad()
        ));
    }
    match (entry.verdict.as_str(), &entry.certificate) {
        ("inconclusive", _) => Outcome::Skipped("inconclusive".to_string()),
        (
            "proved",
            Some(Cert::Invariant {
                num_latches,
                clauses,
                cone,
            }),
        ) => match check_invariant(design, entry.property, *num_latches, clauses, cone.as_ref()) {
            Ok(()) => Outcome::Accepted,
            Err(reason) => Outcome::Rejected(reason),
        },
        ("falsified", Some(Cert::Trace(inputs))) => {
            let Some(depth) = entry.depth else {
                return Outcome::Rejected("falsified entry without a depth".to_string());
            };
            match check_trace(design, entry.property, depth, inputs) {
                Ok(()) => Outcome::Accepted,
                Err(reason) => Outcome::Rejected(reason),
            }
        }
        ("proved" | "falsified", None) => Outcome::Skipped("no certificate".to_string()),
        (verdict, Some(_)) => Outcome::Rejected(format!(
            "certificate kind does not match verdict {verdict:?}"
        )),
        (verdict, None) => Outcome::Skipped(format!("unknown verdict {verdict:?}")),
    }
}

/// Rebuilds the invariant formula as fresh AND nodes over the design's
/// latches, returning its literal.  The extended graph changes nothing
/// about the transition relation — the new nodes only read latch outputs.
fn build_invariant(
    design: &mut Aig,
    num_latches: usize,
    clauses: &[Vec<(usize, bool)>],
    cone: Option<&Cone>,
) -> Result<aig::Lit, String> {
    let mut parts = Vec::new();
    for clause in clauses {
        let mut lits = Vec::with_capacity(clause.len());
        for &(latch, phase) in clause {
            if latch >= num_latches {
                return Err(format!("clause literal references latch {latch}"));
            }
            let lit = design.latch_lit(latch);
            lits.push(if phase { lit } else { !lit });
        }
        parts.push(design.or_many(lits));
    }
    if let Some(cone) = cone {
        // Replay the cone's and-list over a var → literal table.
        let mut vars: Vec<aig::Lit> = Vec::with_capacity(num_latches + 1 + cone.ands.len());
        vars.push(aig::Lit::FALSE);
        for latch in 0..num_latches {
            vars.push(design.latch_lit(latch));
        }
        let decode = |vars: &[aig::Lit], lit: u32| -> Result<aig::Lit, String> {
            let var = (lit >> 1) as usize;
            let base = *vars
                .get(var)
                .ok_or_else(|| format!("cone literal {lit} references an undefined var"))?;
            Ok(if lit & 1 == 1 { !base } else { base })
        };
        for &(left, right) in &cone.ands {
            let l = decode(&vars, left)?;
            let r = decode(&vars, right)?;
            vars.push(design.and(l, r));
        }
        parts.push(decode(&vars, cone.root)?);
    }
    Ok(design.and_many(parts))
}

/// Discharges one query: returns `Ok(())` when the CNF built by
/// `build` (on a fresh unroller over `design`) is unsatisfiable.
fn expect_unsat(
    design: &Aig,
    what: &str,
    build: impl FnOnce(&mut Unroller<'_>),
) -> Result<(), String> {
    let mut unroller = Unroller::new(design);
    build(&mut unroller);
    let cnf = unroller.into_cnf();
    let mut solver = Solver::new();
    solver.add_cnf(&cnf);
    match solver.solve() {
        SolveResult::Unsat => Ok(()),
        SolveResult::Sat => Err(format!("{what} query is satisfiable")),
        SolveResult::Interrupted => Err(format!("{what} query was interrupted")),
    }
}

/// Validates an invariant certificate by the three induction queries.
pub fn check_invariant(
    design: &Aig,
    property: usize,
    num_latches: usize,
    clauses: &[Vec<(usize, bool)>],
    cone: Option<&Cone>,
) -> Result<(), String> {
    if num_latches != design.num_latches() {
        return Err(format!(
            "certificate is over {num_latches} latches, design has {}",
            design.num_latches()
        ));
    }
    let mut extended = design.clone();
    let inv = build_invariant(&mut extended, num_latches, clauses, cone)?;

    // 1. Initiation: init ∧ ¬Inv is unsatisfiable.
    expect_unsat(&extended, "initiation", |unroller| {
        unroller.assert_initial(0);
        let inv0 = unroller.lit(0, inv);
        unroller.assert_lit(!inv0);
    })?;
    // 2. Consecution: Inv ∧ T ∧ ¬Inv′ is unsatisfiable.
    expect_unsat(&extended, "consecution", |unroller| {
        let inv0 = unroller.lit(0, inv);
        unroller.assert_lit(inv0);
        unroller.add_frame();
        let inv1 = unroller.lit(1, inv);
        unroller.assert_lit(!inv1);
    })?;
    // 3. Safety: Inv ∧ bad is unsatisfiable (inputs left free).
    expect_unsat(&extended, "safety", |unroller| {
        let inv0 = unroller.lit(0, inv);
        unroller.assert_lit(inv0);
        let bad = unroller.bad_lit(0, property);
        unroller.assert_lit(bad);
    })
}

/// Validates a trace certificate by replaying it from the reset state.
pub fn check_trace(
    design: &Aig,
    property: usize,
    depth: usize,
    inputs: &[Vec<bool>],
) -> Result<(), String> {
    if inputs.len() != depth + 1 {
        return Err(format!(
            "trace has {} cycles, depth {depth} needs {}",
            inputs.len(),
            depth + 1
        ));
    }
    for (cycle, frame) in inputs.iter().enumerate() {
        if frame.len() != design.num_inputs() {
            return Err(format!(
                "cycle {cycle} drives {} inputs, design has {}",
                frame.len(),
                design.num_inputs()
            ));
        }
    }
    let sim = aig::simulate(design, inputs);
    for cycle in 0..depth {
        if sim.bad[cycle][property] {
            return Err(format!(
                "bad fires already at cycle {cycle}, depth {depth} is not minimal"
            ));
        }
    }
    if !sim.bad[depth][property] {
        return Err(format!("bad does not fire at the reported depth {depth}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-bit mod-6 counter with `bad = (count == bad_at)`.
    fn counter(bad_at: u64) -> Aig {
        let mut aig = Aig::new();
        let (ids, bits) = aig::builder::latch_word(&mut aig, 3, 0);
        let wrap = aig::builder::word_equals_const(&mut aig, &bits, 5);
        let inc = aig::builder::word_increment(&mut aig, &bits, aig::Lit::TRUE);
        let zero = aig::builder::word_const(3, 0);
        let next = aig::builder::word_mux(&mut aig, wrap, &zero, &inc);
        for (id, n) in ids.iter().zip(next.iter()) {
            aig.set_next(*id, *n);
        }
        let bad = aig::builder::word_equals_const(&mut aig, &bits, bad_at);
        aig.add_bad(bad);
        aig
    }

    #[test]
    fn accepts_a_correct_clause_invariant() {
        // "count <= 5" as clauses: ¬(b0 ∧ b1 ∧ b2) and ¬(¬b0 ∧ b1 ∧ b2)
        // — i.e. the two unreachable values 6 and 7 excluded.
        let aig = counter(7);
        let clauses = vec![
            vec![(0usize, false), (1, false), (2, false)],
            vec![(0, true), (1, false), (2, false)],
        ];
        check_invariant(&aig, 0, 3, &clauses, None).unwrap();
    }

    #[test]
    fn rejects_a_non_inductive_invariant() {
        // "count != 7" alone is not inductive: 6 steps to 7.
        let aig = counter(7);
        let clauses = vec![vec![(0usize, false), (1, false), (2, false)]];
        let err = check_invariant(&aig, 0, 3, &clauses, None).unwrap_err();
        assert!(err.contains("consecution"), "{err}");
    }

    #[test]
    fn rejects_an_unsafe_invariant() {
        // The empty clause list is the TRUE invariant: inductive and
        // initiated, but it does not exclude the bad states.
        let aig = counter(3);
        let err = check_invariant(&aig, 0, 3, &[], None).unwrap_err();
        assert!(err.contains("safety"), "{err}");
    }

    #[test]
    fn rejects_an_uninitiated_invariant() {
        // "count == 1" excludes the reset state.
        let aig = counter(7);
        let clauses = vec![vec![(0usize, true)], vec![(1, false)], vec![(2, false)]];
        let err = check_invariant(&aig, 0, 3, &clauses, None).unwrap_err();
        assert!(err.contains("initiation"), "{err}");
    }

    #[test]
    fn replays_traces_and_demands_exact_depth() {
        let aig = counter(3);
        let trace = vec![Vec::new(); 4];
        check_trace(&aig, 0, 3, &trace).unwrap();
        assert!(check_trace(&aig, 0, 2, &trace[..3]).is_err(), "too short");
        assert!(
            check_trace(&aig, 0, 4, &vec![Vec::new(); 5]).is_err(),
            "not minimal"
        );
    }

    #[test]
    fn parses_emitted_documents() {
        let doc = r#"{
  "schema": "itpseq-cert/v1",
  "design": "counter.aag",
  "properties": [
    {"property":0,"engine":"PDR","verdict":"proved","certificate":{"kind":"invariant","num_latches":2,"clauses":[[[0,false],[1,true]]],"cone":{"ands":[[2,4]],"root":6}}},
    {"property":1,"verdict":"falsified","depth":1,"certificate":{"kind":"trace","inputs":[[true],[false]]}},
    {"property":2,"verdict":"inconclusive"}
  ]
}"#;
        let parsed = parse_document(doc).unwrap();
        assert_eq!(parsed.design, "counter.aag");
        assert_eq!(parsed.entries.len(), 3);
        let Some(Cert::Invariant {
            num_latches,
            clauses,
            cone: Some(cone),
        }) = &parsed.entries[0].certificate
        else {
            panic!("bad invariant entry");
        };
        assert_eq!((*num_latches, clauses.len()), (2, 1));
        assert_eq!((cone.ands[0], cone.root), ((2, 4), 6));
        let Some(Cert::Trace(inputs)) = &parsed.entries[1].certificate else {
            panic!("bad trace entry");
        };
        assert_eq!(inputs, &vec![vec![true], vec![false]]);
        assert!(parsed.entries[2].certificate.is_none());
    }
}
