//! Class definitions: fields, public member functions, mask functions,
//! and triggers — the O++ `class` construct (Section 2).
//!
//! ```text
//! class stockRoom {
//!     ...
//! public:
//!     void deposit(Item i, int q);
//!     void withdraw(Item i, int q);
//! trigger:
//!     T1(): perpetual before withdraw && !authorized(user()) ==> tabort
//!     T2(): after withdraw(i, q) && i.balance < reorder(i) ==> order(i)
//! };
//! ```
//!
//! The Rust embedding uses a fluent [`ClassBuilder`]; trigger events are
//! given in the Section 3.3 surface syntax and compiled to automata once
//! per class ("the transition table of the trigger automaton is kept
//! once, for the class", Section 5).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ode_core::{parse_event, CompiledEvent, EventExpr, Value};

use crate::error::OdeError;
use crate::ids::ObjectId;

/// Whether a member function reads or updates the object — this decides
/// which of the `read`/`update` object-state events its execution posts
/// (Section 3.1 item 1c).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodKind {
    /// Posts `before/after read` (and `access`).
    Read,
    /// Posts `before/after update` (and `access`).
    Update,
}

/// Execution context handed to a method body: the receiving object's
/// fields (with undo-logged writes) and the call arguments.
pub struct MethodCtx<'a> {
    pub(crate) object: ObjectId,
    pub(crate) fields: &'a mut BTreeMap<String, Value>,
    pub(crate) dirty: &'a mut Vec<(String, Option<Value>)>,
    pub(crate) args: &'a [Value],
    pub(crate) output: &'a mut crate::engine::OutputLog,
}

impl MethodCtx<'_> {
    /// The receiving object.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Read a field.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.get(name)
    }

    /// Read a field, erroring if absent.
    pub fn get_required(&self, name: &str) -> Result<Value, OdeError> {
        self.fields
            .get(name)
            .cloned()
            .ok_or_else(|| OdeError::Method(format!("missing field `{name}`")))
    }

    /// Write a field (captured in the transaction's undo log).
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let name = name.into();
        let old = self.fields.insert(name.clone(), value.into());
        self.dirty.push((name, old));
    }

    /// The positional call arguments.
    pub fn args(&self) -> &[Value] {
        self.args
    }

    /// The `i`-th argument, erroring if absent.
    pub fn arg(&self, i: usize) -> Result<Value, OdeError> {
        self.args
            .get(i)
            .cloned()
            .ok_or_else(|| OdeError::Method(format!("missing argument {i}")))
    }

    /// Append a line to the database's output log (the simulation's
    /// stand-in for `printf` in method bodies).
    pub fn emit(&mut self, line: impl Into<String>) {
        self.output.push(line.into());
    }
}

/// A member-function body.
pub type MethodBody = Arc<dyn Fn(&mut MethodCtx<'_>) -> Result<Value, OdeError> + Send + Sync>;

/// A public member function.
#[derive(Clone)]
pub struct MethodDef {
    /// Method name.
    pub name: String,
    /// Read or update (selects the object-state events posted).
    pub kind: MethodKind,
    /// Declared parameter names (arity-checked at call time).
    pub params: Vec<String>,
    /// The body.
    pub body: MethodBody,
}

impl fmt::Debug for MethodDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MethodDef")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

/// A side-effect-free function usable inside masks (the paper's
/// `authorized(user())`, `reorder(i)`, …). Receives the object's fields
/// and the calling transaction's user value.
pub type MaskFn = Arc<dyn Fn(&MaskFnCtx<'_>, &[Value]) -> Option<Value> + Send + Sync>;

/// Context for mask functions.
pub struct MaskFnCtx<'a> {
    /// Fields of the object the event was posted to.
    pub fields: &'a BTreeMap<String, Value>,
    /// The posting transaction's user value (`user()` reads this).
    pub user: &'a Value,
}

/// Which history a trigger monitors (Section 6): the committed history
/// (automaton state stored "inside" the object and rolled back on abort)
/// or the complete history including aborted transactions (state kept
/// outside the object, never rolled back).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Monitoring {
    /// Roll the automaton state back on abort.
    #[default]
    Committed,
    /// Keep aborted transactions' events in the monitored history.
    FullHistory,
}

/// Context handed to a trigger action. Actions run immediately, within
/// the transaction that detected the event (the E-A model, Section 7
/// "Immediate-Immediate" is the primitive; all other couplings are
/// encoded in the *event*).
pub struct ActionCtx<'a> {
    pub(crate) db: &'a mut crate::engine::Database,
    pub(crate) txn: crate::ids::TxnId,
    pub(crate) object: ObjectId,
    pub(crate) trigger: &'a str,
    pub(crate) event: &'a ode_core::BasicEvent,
    pub(crate) event_args: &'a [Value],
}

impl ActionCtx<'_> {
    /// The object whose trigger fired.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The firing trigger's name.
    pub fn trigger(&self) -> &str {
        self.trigger
    }

    /// The transaction the action executes in.
    pub fn txn(&self) -> crate::ids::TxnId {
        self.txn
    }

    /// The basic event whose posting completed the composite event (the
    /// point the composite event occurred at, Section 3.3).
    pub fn event(&self) -> &ode_core::BasicEvent {
        self.event
    }

    /// The arguments of that basic event (e.g. the `(i, q)` of the
    /// `after withdraw(i, q)` that fired trigger T2).
    pub fn event_args(&self) -> &[Value] {
        self.event_args
    }

    /// The most recently captured arguments of a constituent basic event
    /// (requires [`ClassBuilder::capture_params`] on the trigger). This
    /// is the paper's §9 "incorporation of arguments into composite event
    /// specification" hook: each relevant posting records its values, so
    /// the action can read the parameters of *earlier* constituents, not
    /// just of the completing event.
    pub fn captured(&self, basic: &ode_core::BasicEvent) -> Option<Vec<Value>> {
        let o = self.db.object(self.object)?;
        let class = self.db.class(o.class);
        let def_index = class.trigger_index(self.trigger)?;
        let slot = class.triggers[def_index]
            .event
            .alphabet()
            .group_position(basic)?;
        o.trigger_instance(def_index)?.captured.get(slot)?.clone()
    }

    /// Invoke a member function on the trigger's own object (posts the
    /// usual events; may fire further triggers — cascades are depth-
    /// guarded).
    pub fn call(&mut self, method: &str, args: &[Value]) -> Result<Value, OdeError> {
        self.db.call(self.txn, self.object, method, args)
    }

    /// Invoke a member function on another object.
    pub fn call_on(
        &mut self,
        object: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, OdeError> {
        self.db.call(self.txn, object, method, args)
    }

    /// Re-activate a trigger on this object (the paper's T2 "must be
    /// explicitly reactivated after it has fired").
    pub fn activate(&mut self, trigger: &str, params: &[Value]) -> Result<(), OdeError> {
        self.db
            .activate_trigger(self.txn, self.object, trigger, params)
    }

    /// Read a field of this object without posting events (trigger
    /// actions conceptually run inside the object).
    pub fn field(&self, name: &str) -> Option<Value> {
        self.db.peek_field(self.object, name)
    }

    /// Append to the database output log.
    pub fn emit(&mut self, line: impl Into<String>) {
        self.db.emit(line);
    }

    /// Abort the surrounding transaction (`tabort`). The engine unwinds
    /// with [`OdeError::Aborted`].
    pub fn tabort(&mut self) -> Result<(), OdeError> {
        self.db.request_abort(
            self.txn,
            crate::error::AbortReason::TriggerAbort {
                trigger: self.trigger.to_string(),
            },
        )
    }
}

/// A native trigger-action body.
pub type ActionFn = Arc<dyn Fn(&mut ActionCtx<'_>) -> Result<(), OdeError> + Send + Sync>;

/// A trigger action.
#[derive(Clone)]
pub enum Action {
    /// Abort the transaction (`==> tabort`).
    Abort,
    /// Invoke a member function on the firing object with no arguments
    /// (`==> summary()`).
    Call(String),
    /// Append a line to the output log (for tests and examples).
    Emit(String),
    /// Arbitrary native code.
    Native(ActionFn),
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Abort => write!(f, "Abort"),
            Action::Call(m) => write!(f, "Call({m})"),
            Action::Emit(s) => write!(f, "Emit({s:?})"),
            Action::Native(_) => write!(f, "Native(..)"),
        }
    }
}

/// A trigger definition: `name: [perpetual] event ==> action`.
#[derive(Clone, Debug)]
pub struct TriggerDef {
    /// Trigger name (`T1` … `T8`).
    pub name: String,
    /// Perpetual triggers stay active after firing; ordinary triggers
    /// deactivate the moment they fire (Section 2).
    pub perpetual: bool,
    /// The source event expression (kept for baselines and diagnostics).
    pub expr: EventExpr,
    /// The compiled automaton — shared by every object of the class.
    pub event: Arc<CompiledEvent>,
    /// Which history variant the automaton observes.
    pub monitoring: Monitoring,
    /// Capture the arguments of each relevant constituent event as the
    /// composite unfolds (paper §9 future work: "some events carry
    /// values with them which may be of use later on"). Captured values
    /// are diagnostics available to the action via
    /// [`ActionCtx::captured`]; they are not rolled back on abort.
    pub capture: bool,
    /// The action scheduled when the trigger fires.
    pub action: Action,
}

/// A class definition.
#[derive(Clone)]
pub struct ClassDef {
    /// Class name.
    pub name: String,
    /// Optional base class (O++ classes are C++ classes: single
    /// inheritance; the subclass inherits fields, methods, mask
    /// functions, triggers, and constructor activations, and may
    /// override methods and mask functions by name).
    pub parent: Option<String>,
    /// Field defaults (new objects start from these).
    pub fields: BTreeMap<String, Value>,
    /// Public member functions by name.
    pub methods: BTreeMap<String, MethodDef>,
    /// Mask functions by name.
    pub mask_fns: BTreeMap<String, MaskFn>,
    /// Triggers, in declaration order.
    pub triggers: Vec<TriggerDef>,
    /// Triggers auto-activated in the constructor (the stockRoom
    /// constructor's `T1(); T2(); …`).
    pub auto_activate: Vec<String>,
}

impl fmt::Debug for ClassDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassDef")
            .field("name", &self.name)
            .field("fields", &self.fields)
            .field("methods", &self.methods.keys().collect::<Vec<_>>())
            .field(
                "triggers",
                &self.triggers.iter().map(|t| &t.name).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

/// Number of non-method [`ode_core::EventKind`] variants (the fixed,
/// string-free kinds a posting can carry).
const FIXED_KINDS: usize = 9;

fn fixed_kind_index(kind: &ode_core::EventKind) -> Option<usize> {
    use ode_core::EventKind::*;
    match kind {
        Create => Some(0),
        Delete => Some(1),
        Update => Some(2),
        Read => Some(3),
        Access => Some(4),
        TBegin => Some(5),
        TComplete => Some(6),
        TCommit => Some(7),
        TAbort => Some(8),
        Method(_) => None,
    }
}

fn qualifier_index(q: &ode_core::Qualifier) -> usize {
    match q {
        ode_core::Qualifier::Before => 0,
        ode_core::Qualifier::After => 1,
    }
}

/// Registration-time runtime artifacts of one class: the event router
/// plus dense resolve tables, built once when the class is defined so
/// the posting hot path does no per-trigger hashing.
pub(crate) struct ClassRuntime {
    /// The class-level router: relevance index, mask dedup, and symbol
    /// remaps over all the class's trigger alphabets.
    pub(crate) router: ode_core::ClassRouter,
    /// Event codes for the fixed (string-free) kinds, by qualifier ×
    /// kind — resolved with two array indexes, no hashing at all.
    fixed: [[Option<ode_core::EventCode>; FIXED_KINDS]; 2],
    /// Event codes for method events, by name then qualifier.
    methods: std::collections::HashMap<String, [Option<ode_core::EventCode>; 2]>,
}

impl ClassRuntime {
    /// Build the runtime for a (flattened) class definition.
    pub(crate) fn build(class: &ClassDef) -> ClassRuntime {
        let router = ode_core::ClassRouter::build(
            class
                .triggers
                .iter()
                .enumerate()
                .map(|(i, t)| (i, t.event.alphabet())),
        );
        let mut fixed = [[None; FIXED_KINDS]; 2];
        let mut methods: std::collections::HashMap<String, [Option<ode_core::EventCode>; 2]> =
            std::collections::HashMap::new();
        for (code, ev) in router.interner().iter() {
            if let ode_core::BasicEvent::Db(q, kind) = ev {
                match kind {
                    ode_core::EventKind::Method(name) => {
                        methods.entry(name.clone()).or_default()[qualifier_index(q)] = Some(code);
                    }
                    other => {
                        if let Some(ki) = fixed_kind_index(other) {
                            fixed[qualifier_index(q)][ki] = Some(code);
                        }
                    }
                }
            }
        }
        ClassRuntime {
            router,
            fixed,
            methods,
        }
    }

    /// Resolve a posted basic event to its class-level code — `None`
    /// means no trigger of the class mentions it. Fixed kinds resolve
    /// with two array indexes; method events with one string hash; time
    /// events fall back to the interner.
    pub(crate) fn resolve(&self, basic: &ode_core::BasicEvent) -> Option<ode_core::EventCode> {
        match basic {
            ode_core::BasicEvent::Db(q, ode_core::EventKind::Method(name)) => self
                .methods
                .get(name)
                .and_then(|codes| codes[qualifier_index(q)]),
            ode_core::BasicEvent::Db(q, kind) => {
                self.fixed[qualifier_index(q)][fixed_kind_index(kind)?]
            }
            other => self.router.code(other),
        }
    }
}

impl ClassDef {
    /// Start building a class.
    pub fn builder(name: impl Into<String>) -> ClassBuilder {
        ClassBuilder {
            def: ClassDef {
                name: name.into(),
                parent: None,
                fields: BTreeMap::new(),
                methods: BTreeMap::new(),
                mask_fns: BTreeMap::new(),
                triggers: Vec::new(),
                auto_activate: Vec::new(),
            },
            error: None,
        }
    }

    /// Look up a trigger index by name.
    pub fn trigger_index(&self, name: &str) -> Option<usize> {
        self.triggers.iter().position(|t| t.name == name)
    }
}

/// Fluent builder for [`ClassDef`]. Errors (bad event syntax, duplicate
/// names) are deferred to [`ClassBuilder::build`].
pub struct ClassBuilder {
    def: ClassDef,
    error: Option<OdeError>,
}

impl ClassBuilder {
    /// Inherit from a base class (resolved when the class is defined in
    /// a database; the base must already be defined there).
    pub fn extends(mut self, parent: impl Into<String>) -> Self {
        self.def.parent = Some(parent.into());
        self
    }

    /// Declare a field with a default value.
    pub fn field(mut self, name: impl Into<String>, default: impl Into<Value>) -> Self {
        self.def.fields.insert(name.into(), default.into());
        self
    }

    /// Declare a member function.
    pub fn method(
        mut self,
        name: impl Into<String>,
        kind: MethodKind,
        params: &[&str],
        body: impl Fn(&mut MethodCtx<'_>) -> Result<Value, OdeError> + Send + Sync + 'static,
    ) -> Self {
        let name = name.into();
        let def = MethodDef {
            name: name.clone(),
            kind,
            params: params.iter().map(|s| s.to_string()).collect(),
            body: Arc::new(body),
        };
        if self.def.methods.insert(name.clone(), def).is_some() && self.error.is_none() {
            self.error = Some(OdeError::Method(format!("duplicate method `{name}`")));
        }
        self
    }

    /// Shorthand: a no-op update method (posts events, does nothing).
    pub fn update_method(self, name: impl Into<String>, params: &[&str]) -> Self {
        self.method(name, MethodKind::Update, params, |_| Ok(Value::Null))
    }

    /// Shorthand: a no-op read method.
    pub fn read_method(self, name: impl Into<String>, params: &[&str]) -> Self {
        self.method(name, MethodKind::Read, params, |_| Ok(Value::Null))
    }

    /// Register a mask function.
    pub fn mask_fn(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&MaskFnCtx<'_>, &[Value]) -> Option<Value> + Send + Sync + 'static,
    ) -> Self {
        self.def.mask_fns.insert(name.into(), Arc::new(f));
        self
    }

    /// Declare a trigger from surface syntax. `perpetual` matches the
    /// paper's keyword; the action runs in the detecting transaction.
    pub fn trigger(
        mut self,
        name: impl Into<String>,
        perpetual: bool,
        event_src: &str,
        action: Action,
    ) -> Self {
        let name = name.into();
        if self.error.is_some() {
            return self;
        }
        match parse_event(event_src) {
            Ok(expr) => self.trigger_expr(name, perpetual, expr, action),
            Err(e) => {
                self.error = Some(OdeError::Event(e));
                self
            }
        }
    }

    /// Declare a trigger from a pre-built expression.
    pub fn trigger_expr(
        mut self,
        name: impl Into<String>,
        perpetual: bool,
        expr: EventExpr,
        action: Action,
    ) -> Self {
        let name = name.into();
        if self.error.is_some() {
            return self;
        }
        if self.def.triggers.iter().any(|t| t.name == name) {
            self.error = Some(OdeError::Method(format!("duplicate trigger `{name}`")));
            return self;
        }
        match CompiledEvent::compile(&expr) {
            Ok(compiled) => {
                if compiled.never_occurs() {
                    self.error = Some(OdeError::ImpossibleEvent {
                        trigger: name.clone(),
                    });
                    return self;
                }
                self.def.triggers.push(TriggerDef {
                    name,
                    perpetual,
                    expr,
                    event: Arc::new(compiled),
                    monitoring: Monitoring::Committed,
                    capture: false,
                    action,
                });
                self
            }
            Err(e) => {
                self.error = Some(OdeError::Event(e));
                self
            }
        }
    }

    /// Switch the most recently declared trigger to full-history
    /// monitoring (Section 6).
    pub fn full_history(mut self) -> Self {
        if let Some(t) = self.def.triggers.last_mut() {
            t.monitoring = Monitoring::FullHistory;
        }
        self
    }

    /// Enable constituent-event parameter capture on the most recently
    /// declared trigger (§9 future work).
    pub fn capture_params(mut self) -> Self {
        if let Some(t) = self.def.triggers.last_mut() {
            t.capture = true;
        }
        self
    }

    /// Auto-activate the named triggers in the constructor.
    pub fn activate_on_create(mut self, names: &[&str]) -> Self {
        self.def
            .auto_activate
            .extend(names.iter().map(|s| s.to_string()));
        self
    }

    /// Finish, validating deferred errors and auto-activation names.
    pub fn build(self) -> Result<ClassDef, OdeError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        for n in &self.def.auto_activate {
            if self.def.trigger_index(n).is_none() {
                return Err(OdeError::UnknownTrigger {
                    class: self.def.name.clone(),
                    trigger: n.clone(),
                });
            }
        }
        Ok(self.def)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_class() {
        let c = ClassDef::builder("account")
            .field("balance", 0i64)
            .method("depositCash", MethodKind::Update, &["amt"], |ctx| {
                let b = ctx.get_required("balance")?.as_int().unwrap_or(0);
                let amt = ctx.arg(0)?.as_int().unwrap_or(0);
                ctx.set("balance", b + amt);
                Ok(Value::Null)
            })
            .trigger(
                "T",
                true,
                "after depositCash",
                Action::Emit("deposited".into()),
            )
            .activate_on_create(&["T"])
            .build()
            .unwrap();
        assert_eq!(c.name, "account");
        assert_eq!(c.triggers.len(), 1);
        assert!(c.triggers[0].perpetual);
        assert_eq!(c.trigger_index("T"), Some(0));
    }

    #[test]
    fn bad_event_syntax_surfaces_at_build() {
        let r = ClassDef::builder("x")
            .trigger("T", false, "before tcommit", Action::Abort)
            .build();
        assert!(matches!(r, Err(OdeError::Event(_))));
    }

    #[test]
    fn impossible_event_rejected() {
        let r = ClassDef::builder("x")
            .update_method("m", &[])
            .trigger("T", false, "after m & !after m", Action::Abort)
            .build();
        assert!(matches!(r, Err(OdeError::ImpossibleEvent { .. })));
    }

    #[test]
    fn duplicate_trigger_rejected() {
        let r = ClassDef::builder("x")
            .trigger("T", false, "after m", Action::Abort)
            .trigger("T", false, "after m", Action::Abort)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn unknown_auto_activation_rejected() {
        let r = ClassDef::builder("x")
            .trigger("T", false, "after m", Action::Abort)
            .activate_on_create(&["missing"])
            .build();
        assert!(matches!(r, Err(OdeError::UnknownTrigger { .. })));
    }

    #[test]
    fn full_history_marks_last_trigger() {
        let c = ClassDef::builder("x")
            .trigger("T1", true, "after m", Action::Abort)
            .trigger("T2", true, "after m", Action::Abort)
            .full_history()
            .build()
            .unwrap();
        assert_eq!(c.triggers[0].monitoring, Monitoring::Committed);
        assert_eq!(c.triggers[1].monitoring, Monitoring::FullHistory);
    }
}
