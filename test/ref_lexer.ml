(* Reference lexer for the [.japi] language: a token list, a record per
   token and a string per identifier. The production lexer writes flat
   lanes instead; test_japi checks the two agree on kinds, positions and
   errors. *)

type kind =
  | Ident of string
  | Kw_package
  | Kw_import
  | Kw_class
  | Kw_interface
  | Kw_extends
  | Kw_implements
  | Kw_static
  | Kw_public
  | Kw_protected
  | Kw_private
  | Kw_abstract
  | Kw_final
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Semi
  | Comma
  | Dot
  | Lbracket
  | Rbracket
  | At
  | Eof

type token = {
  kind : kind;
  line : int;
  col : int;
}

(* An unexpected byte as the error message shows it: printable ASCII as
   itself, the whole character when the bytes from [i] form one UTF-8
   sequence (its length read off the lead byte), [\xNN] otherwise. *)
let shown src i =
  let c = Char.code src.[i] in
  let len =
    if c >= 0xc2 && c <= 0xdf then 2
    else if c >= 0xe0 && c <= 0xef then 3
    else if c >= 0xf0 && c <= 0xf4 then 4
    else 0
  in
  if c >= 0x20 && c < 0x7f then String.make 1 src.[i]
  else if
    len > 0 && i + len <= String.length src && String.is_valid_utf_8 (String.sub src i len)
  then String.sub src i len
  else Printf.sprintf "\\x%02x" c

let keyword_of_ident = function
  | "package" -> Some Kw_package
  | "import" -> Some Kw_import
  | "class" -> Some Kw_class
  | "interface" -> Some Kw_interface
  | "extends" -> Some Kw_extends
  | "implements" -> Some Kw_implements
  | "static" -> Some Kw_static
  | "public" -> Some Kw_public
  | "protected" -> Some Kw_protected
  | "private" -> Some Kw_private
  | "abstract" -> Some Kw_abstract
  | "final" -> Some Kw_final
  | _ -> None

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let tokenize ~file src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  let col = ref 1 in
  let i = ref 0 in
  let emit kind ~line ~col = tokens := { kind; line; col } :: !tokens in
  let advance () =
    (if src.[!i] = '\n' then (
       incr line;
       col := 1)
     else incr col);
    incr i
  in
  while !i < n do
    let c = src.[!i] in
    let tok_line = !line and tok_col = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then
      while !i < n && src.[!i] <> '\n' do
        advance ()
      done
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      advance ();
      advance ();
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = '/' then begin
          advance ();
          advance ();
          closed := true
        end
        else advance ()
      done;
      if not !closed then
        Japi.Error.fail ~file ~line:tok_line ~col:tok_col "unterminated block comment"
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      let word = String.sub src start (!i - start) in
      let kind =
        match keyword_of_ident word with
        | Some kw -> kw
        | None -> Ident word
      in
      emit kind ~line:tok_line ~col:tok_col
    end
    else begin
      let kind =
        match c with
        | '{' -> Some Lbrace
        | '}' -> Some Rbrace
        | '(' -> Some Lparen
        | ')' -> Some Rparen
        | ';' -> Some Semi
        | ',' -> Some Comma
        | '.' -> Some Dot
        | '[' -> Some Lbracket
        | ']' -> Some Rbracket
        | '@' -> Some At
        | _ -> None
      in
      match kind with
      | Some k ->
          advance ();
          emit k ~line:tok_line ~col:tok_col
      | None ->
          Japi.Error.fail ~file ~line:tok_line ~col:tok_col
            (Printf.sprintf "unexpected character '%s'" (shown src !i))
    end
  done;
  tokens := { kind = Eof; line = !line; col = !col } :: !tokens;
  Array.of_list (List.rev !tokens)
