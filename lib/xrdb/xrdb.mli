(** The X resource manager (Xrm) database.

    swm is configured *entirely* through this database (paper §3): resource
    specifications such as

    {v
swm.monochrome.screen0.XClock.xclock.decoration: noTitlePanel
Swm*panel.openLook: \
    button pulldown +0+0 \
    button name     +C+0
    v}

    This module implements the full Xrm model: components joined by tight
    ([.]) or loose ([*]) bindings, [?] single-component wildcards, query by
    parallel name/class lists, and the X11 precedence rules (earlier
    components dominate; name match > class match > [?] > skipped; tight >
    loose).  Values support [\ ] line continuations and [\n] escapes. *)

type t

type binding = Tight | Loose
type component = Name of string | Single_wild

type key = (binding * component) list
(** A parsed resource specifier; the [binding] is the one *preceding* the
    component (the first is conventionally [Tight]). *)

val create : unit -> t
val copy : t -> t
val size : t -> int

(** {1 Building the database} *)

val parse_key : string -> (key, string) result
(** A run of [.] and [*] that contains a [*] is one loose binding, so
    [swm*.decoration] and [swm*decoration] are the same key.  A leading [.]
    and [..] are errors. *)

val key_to_string : key -> string

val put : t -> string -> string -> unit
(** [put db "swm*panel.foo" "button a +0+0"] — parses the specifier and
    stores/overrides the value.  Raises [Invalid_argument] on a malformed
    specifier. *)

val put_key : t -> key -> string -> unit

val load_string : t -> string -> (int, string) result
(** Merge resource-file text: one [spec: value] per logical line, [!] and
    [#] comment lines, backslash-newline continuations, [\n] escapes.
    Returns the number of entries loaded, or the first syntax error. *)

val load_file : t -> string -> (int, string) result

(** {2 Preprocessing}

    Real resource files are run through cpp; xrdb defines symbols like
    [COLOR] per screen, and template files select policy with [#ifdef].
    {!preprocess} implements the subset those files use: [#include "f"]
    (through a caller-supplied loader), [#define NAME value] with
    whole-word substitution, [#undef], [#ifdef] / [#ifndef] / [#else] /
    [#endif] (nested). *)

val preprocess :
  ?defines:(string * string) list ->
  ?loader:(string -> string option) ->
  string ->
  (string, string) result

val load_string_cpp :
  ?defines:(string * string) list ->
  ?loader:(string -> string option) ->
  t ->
  string ->
  (int, string) result
(** {!preprocess} then {!load_string}. *)

val merge : into:t -> t -> unit
(** [merge ~into db] adds every entry of [db], overriding equal keys. *)

val remove : t -> key -> unit

(** {1 Queries} *)

val query : t -> names:string list -> classes:string list -> string option
(** [query db ~names ~classes] with parallel fully-qualified name and class
    lists (equal lengths) returns the value of the best-matching entry under
    Xrm precedence, or [None].

    Answers, [None] included, are memoised in [db]: a repeated query costs a
    hash lookup, not a {!scan}.  The memo is emptied by every change to the
    entries ({!put}, {!put_key}, {!load_string}, {!merge}, {!remove}) and when
    it holds {!memo_capacity} answers; a {!copy} starts with an empty one.
    So [query db] always equals [scan db]. *)

val scan : t -> names:string list -> classes:string list -> string option
(** The precedence search behind {!query}, run over every entry with no
    memo: the reference that {!query} is tested against. *)

val memo_capacity : int
(** The most answers one database's memo holds. *)

val queries : t -> int
(** {!query} calls on this database since it was created. *)

val scans : t -> int
(** The {!query} calls that the memo could not answer, each of which ran a
    {!scan}.  The memo hit rate is [1 - scans / queries]. *)

val memo_size : t -> int
(** Answers in the memo now. *)

val parse_bool : string -> bool option
(** Recognises true/false, yes/no, on/off, 1/0 (case-insensitive, blanks
    trimmed); anything else is [None]. *)

val query_bool : t -> names:string list -> classes:string list -> bool option
(** {!query} read through {!parse_bool}. *)

val query_int : t -> names:string list -> classes:string list -> int option

val entries : t -> (key * string) list
(** All entries, in unspecified order. *)

val to_string : t -> string
(** Serialise back to resource-file syntax (one line per entry). *)
