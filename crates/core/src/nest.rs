//! Function-level analysis: inside-out nest traversal, loop collapsing and
//! final property determination.
//!
//! The paper's algorithm "proceeds in program order, analyzing the loops in
//! each nest from inside out" (Section 2.2), and determines "the final
//! SVD_stn if LG is outermost" (Algorithm 1, line 21) by substituting the
//! values variables hold *before* the loop (e.g. `Λ_irownnz = 0` in the
//! AMGmk example). This module owns that program-order walk: it keeps a
//! symbolic top-level state, analyzes each eligible nest with
//! [`crate::phase1()`]/[`crate::phase2()`], substitutes loop-entry values into
//! the proven properties, and accumulates the [`PropertyDb`].

use crate::collapse::CollapsedMap;
use crate::phase1::phase1;
use crate::phase2::{phase2, Phase2Result, SsrInfo};
use crate::properties::{AlgorithmLevel, ArrayProperty, Monotonicity, PropertyDb};
use crate::value::{Svd, Val};
use std::collections::HashMap;
use subsub_ir::{check_loop_eligibility, IrStmt, LValue, LoopCfg, LoopId, LoweredFunction, Rhs};
use subsub_symbolic::{Expr, Range, RangeEnv, SymbolKind};

/// Per-loop analysis outcome.
#[derive(Debug, Clone)]
pub struct LoopAnalysis {
    /// Whether the loop was eligible for Phase-1/Phase-2.
    pub eligible: bool,
    /// The ineligibility reason, if any.
    pub ineligibility: Option<String>,
    /// Phase-1 SVD at the exit node (empty for ineligible loops).
    pub svd: Svd,
    /// SSR variables found by Phase-2.
    pub ssr_vars: Vec<SsrInfo>,
    /// Properties proven for this loop (over `Λ_*` symbols, i.e. before
    /// loop-entry substitution).
    pub loop_properties: Vec<ArrayProperty>,
}

/// Whole-function analysis result.
#[derive(Debug, Clone)]
pub struct FunctionAnalysis {
    /// Function name.
    pub name: String,
    /// Final array properties, with loop-entry values substituted.
    pub properties: PropertyDb,
    /// Per-loop analysis outcomes.
    pub loops: HashMap<LoopId, LoopAnalysis>,
    /// Collapsed forms of analyzed loops.
    pub collapsed: CollapsedMap,
}

impl FunctionAnalysis {
    /// Looks up the outcome of one loop.
    pub fn loop_analysis(&self, id: LoopId) -> Option<&LoopAnalysis> {
        self.loops.get(&id)
    }
}

/// Symbolic top-level state while walking the function in program order.
#[derive(Debug, Clone, Default)]
struct TopState {
    /// Current scalar values (over function inputs).
    scalars: HashMap<String, Val>,
    /// Direct constant array writes (`col_ptr[0] = 0`): array → (idx, val).
    const_writes: HashMap<String, Vec<(i64, i64)>>,
}

/// Analyzes one lowered function at the given algorithm level.
pub fn analyze_function(
    f: &LoweredFunction,
    level: AlgorithmLevel,
    env: &RangeEnv,
) -> FunctionAnalysis {
    let mut out = FunctionAnalysis {
        name: f.name.clone(),
        properties: PropertyDb::new(),
        loops: HashMap::new(),
        collapsed: CollapsedMap::new(),
    };
    let mut state = TopState::default();
    walk_stmts(&f.body, f, level, env, &mut state, &mut out, true);
    out
}

fn walk_stmts(
    body: &[IrStmt],
    f: &LoweredFunction,
    level: AlgorithmLevel,
    env: &RangeEnv,
    state: &mut TopState,
    out: &mut FunctionAnalysis,
    top_level: bool,
) {
    for s in body {
        match s {
            IrStmt::Assign(a) => apply_top_assign(a, state, out),
            IrStmt::If { then_s, else_s, .. } => {
                // Conservative: variables assigned under a top-level branch
                // become unknown; loops under top-level branches are
                // analyzed but their properties are not published.
                let mut dummy = state.clone();
                walk_stmts(then_s, f, level, env, &mut dummy, out, false);
                walk_stmts(else_s, f, level, env, &mut dummy, out, false);
                clobber_assigned(then_s, state, out);
                clobber_assigned(else_s, state, out);
            }
            IrStmt::Loop(l) => {
                if level.analyzes_arrays() {
                    analyze_nest(l, f, level, env, out);
                }
                // Loop-entry substitution & property publication only for
                // loops in straight-line (top-level) position.
                if top_level {
                    publish_loop_results(l.id, state, out, env);
                }
                apply_collapsed_to_state(l.id, state, out, env);
            }
            IrStmt::Opaque(t) => {
                if t != "return" {
                    // Unknown effect: drop everything.
                    state.scalars.clear();
                    state.const_writes.clear();
                    let names: Vec<String> =
                        out.properties.iter().map(|p| p.array.clone()).collect();
                    for n in names {
                        out.properties.invalidate(&n);
                    }
                }
            }
        }
    }
}

/// Analyzes a nest inside-out, filling `out.loops` and `out.collapsed`.
fn analyze_nest(
    l: &subsub_ir::LoopIr,
    f: &LoweredFunction,
    level: AlgorithmLevel,
    env: &RangeEnv,
    out: &mut FunctionAnalysis,
) {
    for inner in l.inner_loops() {
        analyze_nest(inner, f, level, env, out);
    }
    if let Err(e) = check_loop_eligibility(l) {
        out.loops.insert(
            l.id,
            LoopAnalysis {
                eligible: false,
                ineligibility: Some(e.to_string()),
                svd: Svd::new(),
                ssr_vars: Vec::new(),
                loop_properties: Vec::new(),
            },
        );
        return;
    }
    let cfg = LoopCfg::build(l);
    let p1 = phase1(l, &cfg, &out.collapsed, &f.types, env);
    let p2: Phase2Result = phase2(l, &p1.svd, &f.conds, level, env);
    out.collapsed.insert(l.id, p2.collapsed);
    out.loops.insert(
        l.id,
        LoopAnalysis {
            eligible: true,
            ineligibility: None,
            svd: p1.svd,
            ssr_vars: p2.ssr_vars,
            loop_properties: p2.properties,
        },
    );
}

/// Substitutes loop-entry values (`Λ_x` → value of `x` before the loop)
/// into the loop's proven properties and publishes them in the DB.
fn publish_loop_results(id: LoopId, state: &TopState, out: &mut FunctionAnalysis, env: &RangeEnv) {
    let Some(la) = out.loops.get(&id) else { return };
    let props = la.loop_properties.clone();
    for p in props {
        let Some(index_range) = subst_entry_range(&p.index_range, state, env) else {
            continue;
        };
        let value_range = p
            .value_range
            .as_ref()
            .and_then(|r| subst_entry_range(r, state, env));
        let mut published = ArrayProperty {
            index_range,
            value_range,
            ..p
        };

        // The SDDMM idiom: the counted region starts at 1 because slot 0
        // was assigned directly before the loop (`col_ptr[0] = 0`). Extend
        // the monotone range to include the directly-written prefix; the
        // extension is published as non-strict unless the prefix value is
        // provably below the appended values.
        if let Some(lo) = published.index_range.lo.as_int() {
            if lo == 1 {
                if let Some(ws) = state.const_writes.get(&published.array) {
                    if let Some((_, v0)) = ws.iter().find(|(i, _)| *i == 0) {
                        let below = published
                            .value_range
                            .as_ref()
                            .map(|vr| env.proves_lt(&Expr::int(*v0), &vr.lo))
                            .unwrap_or(false);
                        let at_or_below = below
                            || published
                                .value_range
                                .as_ref()
                                .map(|vr| env.proves_le(&Expr::int(*v0), &vr.lo))
                                .unwrap_or(false);
                        if at_or_below {
                            published.index_range.lo = Expr::int(0);
                            if !below {
                                published.monotonicity = Monotonicity::Monotonic;
                            }
                        }
                    }
                }
            }
        }
        out.properties.insert(published);
    }
    // Arrays written by the loop without a surviving property lose any
    // previously known property.
    let collapsed = out.collapsed.get(&id).cloned().unwrap_or_default();
    for w in &collapsed.arrays {
        let has_prop = out
            .loops
            .get(&id)
            .map(|la| la.loop_properties.iter().any(|p| p.array == w.array))
            .unwrap_or(false);
        if !has_prop {
            out.properties.invalidate(&w.array);
        }
    }
}

/// Applies the collapsed scalar effects of a loop to the top-level state.
fn apply_collapsed_to_state(
    id: LoopId,
    state: &mut TopState,
    out: &FunctionAnalysis,
    env: &RangeEnv,
) {
    let Some(c) = out.collapsed.get(&id) else {
        // Unanalyzed loop: unknown effects on everything it assigns.
        state.scalars.clear();
        state.const_writes.clear();
        return;
    };
    let updates: Vec<(String, Val)> = c
        .scalars
        .iter()
        .map(|cs| {
            let v = match &cs.val {
                Val::Bottom => Val::Bottom,
                Val::Range(r) => subst_entry_range(r, state, env)
                    .map(Val::Range)
                    .unwrap_or(Val::Bottom),
            };
            (cs.name.clone(), v)
        })
        .collect();
    for (name, v) in updates {
        state.scalars.insert(name, v);
    }
    for w in &c.arrays {
        state.const_writes.remove(&w.array);
    }
}

/// Substitutes `Λ_x` with the top-level value of `x`; `x_max` symbols stay
/// (they are runtime values). Plain symbols with known constant state are
/// also substituted. Returns `None` when a needed value is ⊥.
fn subst_entry_range(r: &Range, state: &TopState, env: &RangeEnv) -> Option<Range> {
    let mut cur = r.clone();
    for _ in 0..32 {
        let sym = cur
            .lo
            .free_syms()
            .into_iter()
            .chain(cur.hi.free_syms())
            .find(|s| match s.kind {
                SymbolKind::Entry => true,
                SymbolKind::Var => matches!(
                    state.scalars.get(s.name.as_ref()),
                    Some(Val::Range(r)) if r.is_point() && r.lo != Expr::sym(s.clone())
                ),
                _ => false,
            });
        let Some(sym) = sym else { return Some(cur) };
        match state.scalars.get(sym.name.as_ref()) {
            None => {
                // Λ of a variable never assigned at top level: it is the
                // incoming (parameter) value — the plain symbol.
                cur = cur.subst_sym(&sym, &Expr::var(&sym.name));
            }
            Some(Val::Range(rv)) if rv.is_point() => {
                cur = cur.subst_sym(&sym, &rv.lo);
            }
            Some(Val::Range(rv)) => {
                cur = cur.subst_sym_range(&sym, rv, env)?;
            }
            Some(Val::Bottom) => return None,
        }
    }
    None
}

fn apply_top_assign(a: &subsub_ir::Assign, state: &mut TopState, out: &mut FunctionAnalysis) {
    match &a.lhs {
        LValue::Scalar(name) => {
            let v = match &a.rhs {
                Rhs::Expr(e) if a.integer => {
                    // Resolve against known point values.
                    let mut cur = e.clone();
                    for _ in 0..16 {
                        let sub = cur.free_syms().into_iter().find(|s| {
                            s.kind == SymbolKind::Var
                                && matches!(
                                    state.scalars.get(s.name.as_ref()),
                                    Some(Val::Range(r)) if r.is_point()
                                        && r.lo != Expr::sym(s.clone())
                                )
                        });
                        let Some(s) = sub else { break };
                        let Some(Val::Range(r)) = state.scalars.get(s.name.as_ref()) else {
                            break;
                        };
                        let point = r.lo.clone();
                        cur = cur.subst_sym(&s, &point);
                    }
                    if cur.contains_read() {
                        Val::Bottom
                    } else {
                        Val::point(cur)
                    }
                }
                _ => Val::Bottom,
            };
            state.scalars.insert(name.clone(), v);
        }
        LValue::Array { name, subs } => {
            // Track constant writes; any other direct write invalidates a
            // previously proven property of the array.
            let idx = subs.iter().map(Expr::as_int).collect::<Option<Vec<i64>>>();
            let val = a.rhs.as_expr().and_then(Expr::as_int);
            match (idx.as_deref(), val) {
                (Some([i]), Some(v)) => {
                    state
                        .const_writes
                        .entry(name.clone())
                        .or_default()
                        .push((*i, v));
                }
                _ => {
                    out.properties.invalidate(name);
                }
            }
        }
    }
}

fn clobber_assigned(body: &[IrStmt], state: &mut TopState, out: &mut FunctionAnalysis) {
    for s in body {
        match s {
            IrStmt::Assign(a) => match &a.lhs {
                LValue::Scalar(n) => {
                    state.scalars.insert(n.clone(), Val::Bottom);
                }
                LValue::Array { name, .. } => {
                    state.const_writes.remove(name);
                    out.properties.invalidate(name);
                }
            },
            IrStmt::If { then_s, else_s, .. } => {
                clobber_assigned(then_s, state, out);
                clobber_assigned(else_s, state, out);
            }
            IrStmt::Loop(l) => clobber_assigned(&l.body, state, out),
            IrStmt::Opaque(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::PropertyKind;
    use subsub_cfront::parse_program;
    use subsub_ir::lower_function;

    fn analyze(src: &str, level: AlgorithmLevel) -> FunctionAnalysis {
        let p = parse_program(src).unwrap();
        let f = lower_function(&p.funcs[0], &p.globals).unwrap();
        analyze_function(&f, level, &RangeEnv::new())
    }

    /// Paper Section 3.1 end-to-end: with Λ_irownnz = 0 substituted,
    /// A_rownnz[0 : irownnz_max] = [0 : num_rows-1] #SMA.
    #[test]
    fn amgmk_final_property() {
        let fa = analyze(
            r#"
            void f(int num_rows, int *A_i, int *A_rownnz) {
                int i; int adiag; int irownnz;
                irownnz = 0;
                for (i = 0; i < num_rows; i++) {
                    adiag = A_i[i+1] - A_i[i];
                    if (adiag > 0)
                        A_rownnz[irownnz++] = i;
                }
            }
            "#,
            AlgorithmLevel::New,
        );
        let p = fa.properties.get("A_rownnz").expect("property");
        assert!(p.monotonicity.is_strict());
        assert_eq!(
            p.index_range,
            Range::new(Expr::int(0), Expr::post_max("irownnz"))
        );
        assert_eq!(
            p.value_range,
            Some(Range::new(
                Expr::int(0),
                Expr::var("num_rows") - Expr::int(1)
            ))
        );
    }

    /// Paper Section 3.2 end-to-end: col_ptr extends over the directly
    /// written slot 0 (Λ_holder = 1, col_ptr[0] = 0).
    #[test]
    fn sddmm_final_property() {
        let fa = analyze(
            r#"
            void fill(int nonzeros, int *col_val, int *col_ptr) {
                int i; int holder; int r;
                holder = 1; col_ptr[0] = 0; r = col_val[0];
                for (i = 0; i < nonzeros; i++) {
                    if (col_val[i] != r) {
                        col_ptr[holder++] = i;
                        r = col_val[i];
                    }
                }
            }
            "#,
            AlgorithmLevel::New,
        );
        let p = fa.properties.get("col_ptr").expect("property");
        assert_eq!(
            p.index_range,
            Range::new(Expr::int(0), Expr::post_max("holder"))
        );
        // Extension over the constant prefix keeps (at least) non-strict
        // monotonicity — sufficient for the SDDMM use loop.
        assert!(matches!(&p.kind, PropertyKind::Intermittent { counter } if counter == "holder"));
    }

    /// Paper Section 3.3 end-to-end: the UA idel nest collapses twice and
    /// LEMMA 2 proves strict monotonicity w.r.t. dimension 0.
    #[test]
    fn ua_idel_multidim() {
        let fa = analyze(
            r#"
            void init(int LELT, int idel[64][6][5][5]) {
                int iel; int j; int i; int ntemp;
                for (iel = 0; iel < LELT; iel++) {
                    ntemp = 125 * iel;
                    for (j = 0; j < 5; j++) {
                        for (i = 0; i < 5; i++) {
                            idel[iel][0][j][i] = ntemp + i*5 + j*25 + 4;
                            idel[iel][1][j][i] = ntemp + i*5 + j*25;
                            idel[iel][2][j][i] = ntemp + i + j*25 + 20;
                            idel[iel][3][j][i] = ntemp + i + j*25;
                            idel[iel][4][j][i] = ntemp + i + j*5 + 100;
                            idel[iel][5][j][i] = ntemp + i + j*5;
                        }
                    }
                }
            }
            "#,
            AlgorithmLevel::New,
        );
        let p = fa.properties.get("idel").expect("property");
        assert!(p.monotonicity.is_strict());
        assert_eq!(p.dim, 0);
        assert!(matches!(p.kind, PropertyKind::MultiDim));
        // Value range: [0 : 125*(LELT-1) + 124].
        assert_eq!(
            p.value_range,
            Some(Range::new(
                Expr::int(0),
                Expr::int(125) * (Expr::var("LELT") - Expr::int(1)) + Expr::int(124)
            ))
        );
    }

    /// The base algorithm proves neither the intermittent nor the
    /// multi-dimensional property.
    #[test]
    fn base_level_misses_novel_properties() {
        let src = r#"
            void f(int num_rows, int *A_i, int *A_rownnz) {
                int i; int adiag; int irownnz;
                irownnz = 0;
                for (i = 0; i < num_rows; i++) {
                    adiag = A_i[i+1] - A_i[i];
                    if (adiag > 0)
                        A_rownnz[irownnz++] = i;
                }
            }
        "#;
        let fa = analyze(src, AlgorithmLevel::Base);
        assert!(fa.properties.get("A_rownnz").is_none());
        let fa = analyze(src, AlgorithmLevel::New);
        assert!(fa.properties.get("A_rownnz").is_some());
    }

    /// The base algorithm DOES prove the continuous SRA property
    /// (prefix-sum fill, the CHOLMOD-style pattern).
    #[test]
    fn base_level_proves_sra() {
        let fa = analyze(
            r#"
            void f(int n, int *colptr, int *cnt) {
                int i;
                colptr[0] = 0;
                for (i = 0; i < n; i++) {
                    colptr[i+1] = colptr[i] + 5;
                }
            }
            "#,
            AlgorithmLevel::Base,
        );
        let p = fa.properties.get("colptr").expect("property");
        assert!(p.monotonicity.is_strict());
        assert!(matches!(p.kind, PropertyKind::Sra));
    }

    /// A later unanalyzable write invalidates the property.
    #[test]
    fn later_write_invalidates() {
        let fa = analyze(
            r#"
            void f(int n, int *a, int *perm) {
                int i; int m;
                m = 0;
                for (i = 0; i < n; i++) {
                    if (perm[i] > 0) {
                        a[m] = i;
                        m = m + 1;
                    }
                }
                a[perm[0]] = 7;
            }
            "#,
            AlgorithmLevel::New,
        );
        assert!(fa.properties.get("a").is_none());
    }

    /// Input-dependent subscript arrays (Incomplete Cholesky pattern) get
    /// no property: the fill loop reads the values from program input.
    #[test]
    fn input_dependent_fill_gets_no_property() {
        let fa = analyze(
            r#"
            void f(int n, int *a, int *input) {
                int i;
                for (i = 0; i < n; i++) {
                    a[i] = input[i];
                }
            }
            "#,
            AlgorithmLevel::New,
        );
        assert!(fa.properties.get("a").is_none());
    }

    /// An ineligible loop (break) produces no analysis.
    #[test]
    fn ineligible_loop_recorded() {
        let fa = analyze(
            r#"
            void f(int n, int *a) {
                int i; int m;
                m = 0;
                for (i = 0; i < n; i++) {
                    if (a[i] > 0) break;
                    m = m + 1;
                }
            }
            "#,
            AlgorithmLevel::New,
        );
        let la = fa.loops.values().next().unwrap();
        assert!(!la.eligible);
        assert!(la.ineligibility.as_deref().unwrap().contains("break"));
    }
}
