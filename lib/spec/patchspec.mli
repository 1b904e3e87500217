(** The patch language — the role E9Tool's command language plays for
    the real E9Patch: declarative selection of patch locations and the
    instrumentation applied to each. One vocabulary serves both front
    doors: a patch spec (this module's {!parse}, the CLI's [patch] and
    the daemon's [patch] method) and the tool's [-M MATCH -P PATCH]
    pairs ({!E9_tool.Tool}); both are lists of {!rule}s lowered onto the
    rewriter by {!E9_tool.Tool.lower}.

    A spec is a sequence of rules, first match wins:

    {v
    # instrument the control-flow edges, harden the heap writes
    patch jumps and size >= 5 with counter
    patch heap-writes with lowfat
    patch address 0x400026 with empty
    patch addr >= 0x400000 and addr < 0x401000 with count
    patch op[0].type == mem and not uses rsp with empty
    patch calls and defined(target) and target >= 0x400800 with counter
    v}

    Selectors: the instruction classes [jumps], [heap-writes], [calls],
    [returns], [all]; the attributes [mnemonic <name>],
    [size CMP <int>], [addr CMP <int>], [target CMP <int>] (direct
    branches only — no CFG recovery), [op\[i\].type == reg|imm|mem],
    [op\[i\].reg == <reg>], [op\[i\].imm CMP <int>], [uses <reg>]; the
    guards [defined(target)], [defined(op\[i\])],
    [defined(op\[i\].reg|imm|mem)]; combined with [and], [or], [not] and
    parentheses ([or] binds loosest). [CMP] is one of [>= <= == != < >]
    ([=] is accepted for [==]); [address <int>] abbreviates
    [addr == <int>]; a register is written bare ([rdi]) or with its
    AT&T sigil ([%rdi]). The [with] clause is one patch word of the [-P]
    language ({!parse_patch}). [#] comments run to end of line; rules
    are separated by newlines or [;].

    One lexer and one recursive-descent parser read every rule word:
    a whole spec ({!parse}), one selector ({!parse_selector}, behind
    every selector slot through {!E9_tool.Tool.parse_match}) and one
    patch ({!parse_patch}, behind every patch slot). A malformed word
    raises {!Parse_error} at its token, wherever it is written. *)

type cmp = [ `Ge | `Le | `Eq | `Lt | `Gt | `Ne ]
type op_kind = [ `Reg | `Imm | `Mem ]

(** Attributes a [defined(...)] guard can test. *)
type defattr =
  | D_target
  | D_op of int
  | D_op_reg of int
  | D_op_imm of int
  | D_op_mem of int

type selector =
  | Jumps
  | Heap_writes
  | Calls
  | Returns
  | All
  | Mnemonic of string
  | Size_cmp of cmp * int
  | Addr_cmp of cmp * int
  | Target_cmp of cmp * int  (** static branch target; false if indirect *)
  | Op_type of int * op_kind
  | Op_reg of int * E9_x86.Reg.t
  | Op_imm_cmp of int * cmp * int
  | Reg_used of E9_x86.Reg.t
      (** register appears in an operand, as value or address component *)
  | Defined of defattr
  | And of selector * selector
  | Or of selector * selector
  | Not of selector

(** What a matched site gets: the builtins [print] (per-site
    ["0xADDR: disasm"] line on the instrumentation log), [count]
    (per-site counters; [counter] is accepted as a synonym), [trap]
    (SIGTRAP-style event), [empty], [lowfat] (heap-write redzone check —
    pair it with a heap-write selector), or a call trampoline
    [call\[:clean|:naked\] FN(ARG,...)] with up to 6 static arguments,
    each [asm] | [addr] | [instr] | [size] | a register name | an integer
    literal. [FN] is a function of the injected runtime or an absolute
    address, kept as spelled ([0x401000] stays [0x401000]). [print], [call] and [lowfat] keep state in the injected
    runtime, which {!E9_tool.Tool.rewrite_input} injects for them. *)
type patch =
  | Print
  | Count
  | Trap
  | Empty
  | Lowfat
  | Call of {
      mode : E9_core.Trampoline.call_mode;
      fn : string;  (** injected stdlib name or absolute hex address *)
      args : E9_core.Trampoline.call_arg list;
    }

type rule = { selector : selector; patch : patch }
type t = rule list

(** Parse errors carry the 1-based line and column of the offending
    token. *)
exception Parse_error of { line : int; col : int; message : string }

(** [parse source] parses a spec. Raises {!Parse_error}. *)
val parse : string -> t

(** [parse_selector source] parses a single selector expression, with
    nothing but separators around it (each [;]-piece of a tool match,
    {!E9_tool.Tool.parse_match}). Raises {!Parse_error}. *)
val parse_selector : string -> selector

(** [parse_patch source] parses one patch word, with nothing but
    separators around it: the tool's [-P], the CLI's [patch --template],
    and the daemon's [trampoline {template}], [patch {trampoline}] and
    [tool {patch}]; a spec's [with] clause is the same production.
    Raises {!Parse_error}. *)
val parse_patch : string -> patch

(** [selects sel site] — does the selector match this instruction? *)
val selects : selector -> Frontend.site -> bool

(** [patch_for spec site] — the first matching rule's patch. *)
val patch_for : t -> Frontend.site -> patch option

(** [pp] prints a spec back in concrete syntax (parse ∘ pp = id up to
    formatting). *)
val pp : Format.formatter -> t -> unit

(** [pp_selector] prints one selector in concrete syntax
    (parse_selector ∘ pp_selector = id). *)
val pp_selector : Format.formatter -> selector -> unit

(** [pp_patch] prints one patch in concrete syntax
    (parse_patch ∘ pp_patch = id). *)
val pp_patch : Format.formatter -> patch -> unit

(** [fragment_key spec] is a stable, injective textual encoding of the
    spec's semantics (canonical concrete syntax): the spec half of the
    daemon's result-cache key. *)
val fragment_key : t -> string
