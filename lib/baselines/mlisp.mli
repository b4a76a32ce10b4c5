(** A small Lisp interpreter.

    gwm (Nahaboo's Generic Window Manager, the paper's "policy-free but you
    must learn Lisp" comparator) is configured in a Lisp dialect; this
    interpreter is the substrate for the {!Gwm_like} baseline, and for the
    configurability-cost benches comparing "express the policy in resources"
    against "express the policy as a program".

    Supported: integers, strings, symbols, booleans, lists; [quote], [if],
    [define], [set!], [lambda], [let], [begin], [while]; arithmetic and
    comparison; list primitives; host-registered builtins. *)

type value =
  | Int of int
  | Str of string
  | Sym of string
  | Bool of bool
  | List of value list
  | Closure of closure
  | Builtin of string * (value list -> value)

and closure

type env

exception Error of string

val parse : string -> (value list, string) result
(** Parse a program (a sequence of s-expressions). *)

val pp : Format.formatter -> value -> unit
val to_string : value -> string

val base_env : unit -> env
(** Environment with the standard builtins. *)

val define : env -> string -> value -> unit
val register : env -> string -> (value list -> value) -> unit
(** Register a host primitive. *)

val lookup : env -> string -> value option

val eval : env -> value -> value
(** Raises {!Error} on runtime errors. *)

val eval_program : env -> string -> (value, string) result
(** Parse and evaluate, returning the last expression's value. *)

val call : env -> value -> value list -> value
(** Apply a closure or builtin. *)

